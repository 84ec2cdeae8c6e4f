"""Field snapshot files (.fld).

Layout: three ASCII header lines (dim, points per axis, extents), then the
row-major float64 values, little-endian.
"""
from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from .grid import Grid, ScalarField


def write_field(path: str | Path, f: ScalarField) -> None:
    f.require_single_member("write_field")
    grid = f.grid
    header = (
        f"{grid.dim}\n"
        + " ".join(str(n) for n in grid.shape)
        + "\n"
        + " ".join(repr(ell) for ell in grid.extents)
        + "\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def read_field(path: str | Path) -> ScalarField:
    with open(path, "rb") as fh:
        dim = int(fh.readline().decode("ascii").strip())
        shape = tuple(int(tok) for tok in fh.readline().decode("ascii").split())
        extents = tuple(float(tok) for tok in fh.readline().decode("ascii").split())
        if len(shape) != dim or len(extents) != dim:
            raise ValueError(f"malformed .fld header in {path}")
        grid = Grid(shape, extents)
        data = np.frombuffer(fh.read(), dtype="<f8")
        if data.size != grid.n_points:
            raise ValueError(
                f"{path}: expected {grid.n_points} values, found {data.size}"
            )
        return ScalarField(grid, data.reshape(shape).copy())


def describe_field(path: str | Path) -> str:
    f = read_field(path)
    g = f.grid
    v = f.values
    return (
        f"{path}\n"
        f"  dim     {g.dim}\n"
        f"  points  {' x '.join(str(n) for n in g.shape)}\n"
        f"  extents {' x '.join(f'{ell:g}' for ell in g.extents)}\n"
        f"  min {v.min():.6e}  max {v.max():.6e}  mean {v.mean():.6e}  rms {np.sqrt((v**2).mean()):.6e}\n"
        f"  integral {float(v.sum() * g.cell_volume):.6e}\n"
    )
