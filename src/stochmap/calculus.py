"""Discrete calculus on periodic grids.

Centered second-order stencils throughout, all from the one periodic kernel
`centered_difference` on raw arrays.  The kernel indexes its input and output
with slice tuples precomputed per array axis, so a call costs three
`np.subtract`s and one division, with no axis reordering.  A grid axis is
counted from the trailing end of the array (array axis
``v.ndim - grid.dim + axis``), so an array with a leading member axis (see
`grid`) is differenced member by member, with the bits of each member's own
call.  The summation-by-parts identity

    sum_k u_k (D v)_k = -sum_k (D u)_k v_k

holds exactly for the centered difference D, which is what makes the
flux-form conservation checks close to round-off.

Point evaluation (`sample_at`) is separable Catmull-Rom cubic interpolation;
it reproduces node values exactly and is fourth-order accurate at cell
midpoints.
"""
from __future__ import annotations

import numpy as np

from .grid import Array, Grid, ScalarField, VectorField

_CHUNK = 1 << 15  # points per interpolation chunk, bounds gather temporaries


def _axis_slices(axis: int) -> tuple[tuple[slice, ...], ...]:
    """Index tuples selecting, along array axis ``axis``, the kernel's seven
    node ranges: 2:, :-2, 1:-1 (interior), 1:2, -1:, :1 (first node), -2:-1
    (last node)."""
    lead = (slice(None),) * axis
    ranges = ((2, None), (None, -2), (1, -1), (1, 2), (-1, None), (None, 1), (-2, -1))
    return tuple(lead + (slice(*r),) for r in ranges)


# grids have 1 to 3 axes, and arrays at most one leading member axis
_SLICES = tuple(_axis_slices(axis) for axis in range(4))


def centered_difference(v: Array, axis: int, grid: Grid) -> Array:
    """Periodic (v[k+1] - v[k-1]) / (2h) along grid axis ``axis`` of a raw
    array, by slices; a leading member axis rides along."""
    out = np.empty(v.shape)
    up, down, inner, second, last, first, next_to_last = _SLICES[v.ndim - grid.dim + axis]
    np.subtract(v[up], v[down], out=out[inner])
    np.subtract(v[second], v[last], out=out[first])
    np.subtract(v[first], v[next_to_last], out=out[last])
    out /= 2.0 * grid.spacing[axis]
    return out


def derivative(f: ScalarField, axis: int) -> ScalarField:
    """Centered first derivative along ``axis`` with periodic wraparound."""
    _check_axis(f.grid, axis)
    return f.with_values(centered_difference(f.values, axis, f.grid))


def second_derivative(f: ScalarField, axis_p: int, axis_q: int) -> ScalarField:
    """Composition of centered first differences; symmetric in (p, q)."""
    _check_axis(f.grid, axis_p)
    _check_axis(f.grid, axis_q)
    return derivative(derivative(f, axis_p), axis_q)


def gradient(f: ScalarField) -> VectorField:
    return VectorField(f.grid, tuple(derivative(f, p) for p in range(f.grid.dim)))


def divergence(v: VectorField) -> ScalarField:
    out = derivative(v.components[0], 0)
    for p in range(1, v.dim):
        out = out + derivative(v.components[p], p)
    return out


def curl(v: VectorField):
    """2D: scalar curl dU_y/dx - dU_x/dy.  3D: the usual curl vector."""
    if v.dim == 2:
        return derivative(v.components[1], 0) - derivative(v.components[0], 1)
    if v.dim == 3:
        cx, cy, cz = v.components
        return VectorField(
            v.grid,
            (
                derivative(cz, 1) - derivative(cy, 2),
                derivative(cx, 2) - derivative(cz, 0),
                derivative(cy, 0) - derivative(cx, 1),
            ),
        )
    raise ValueError("curl needs a 2D or 3D vector field")


def integrate(f: ScalarField) -> float:
    """Domain integral: node sum times cell volume (exact trapezoid on the torus)."""
    f.require_single_member("integrate")
    return float(f.values.sum() * f.grid.cell_volume)


def member_integrals(f: ScalarField) -> list[float]:
    """`integrate` of each member of a field batched over members, each a sum
    over the member's own contiguous view, with the bits of its own call."""
    if not f.batch_shape:
        raise ValueError("member_integrals takes a field batched over members")
    return [float(v.sum() * f.grid.cell_volume) for v in f.values]


def dot(a: VectorField, b: VectorField) -> ScalarField:
    out = a.components[0] * b.components[0]
    for p in range(1, a.dim):
        out = out + a.components[p] * b.components[p]
    return out


# ---------------------------------------------------------------------------
# point evaluation

def _catmull_rom_weights(t: Array) -> Array:
    """Weights for nodes (-1, 0, 1, 2) at fractional offset t in [0, 1)."""
    t2 = t * t
    t3 = t2 * t
    return np.stack(
        [
            0.5 * (-t + 2.0 * t2 - t3),
            0.5 * (2.0 - 5.0 * t2 + 3.0 * t3),
            0.5 * (t + 4.0 * t2 - 3.0 * t3),
            0.5 * (-t2 + t3),
        ],
        axis=-1,
    )


def sample_at(f: ScalarField, points: Array) -> Array:
    """Evaluate ``f`` at arbitrary points (wrapped periodically).

    ``points`` has shape (N, dim); returns shape (N,).
    """
    f.require_single_member("sample_at")
    grid = f.grid
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.shape[-1] != grid.dim:
        raise ValueError(f"points must have {grid.dim} columns")
    out = np.empty(pts.shape[0])
    for start in range(0, pts.shape[0], _CHUNK):
        sl = slice(start, min(start + _CHUNK, pts.shape[0]))
        out[sl] = _sample_chunk(f.values, grid, pts[sl])
    return out


def sample_vector_at(v: VectorField, points: Array) -> Array:
    """Per-component sample_at; returns shape (N, dim)."""
    return np.stack([sample_at(c, points) for c in v.components], axis=-1)


def _sample_chunk(values: Array, grid: Grid, pts: Array) -> Array:
    idx = []
    wts = []
    for p in range(grid.dim):
        h = grid.spacing[p]
        n = grid.shape[p]
        xi = pts[:, p] / h
        base = np.floor(xi).astype(np.int64)
        t = xi - base
        idx.append(np.mod(base[:, None] + np.arange(-1, 3), n))
        wts.append(_catmull_rom_weights(t))
    if grid.dim == 1:
        gathered = values[idx[0]]
        return np.einsum("na,na->n", gathered, wts[0])
    if grid.dim == 2:
        gathered = values[idx[0][:, :, None], idx[1][:, None, :]]
        return np.einsum("nab,na,nb->n", gathered, wts[0], wts[1])
    gathered = values[
        idx[0][:, :, None, None],
        idx[1][:, None, :, None],
        idx[2][:, None, None, :],
    ]
    return np.einsum("nabc,na,nb,nc->n", gathered, wts[0], wts[1], wts[2])


def _check_axis(grid: Grid, axis: int) -> None:
    if not 0 <= axis < grid.dim:
        raise ValueError(f"axis {axis} out of range for a {grid.dim}D grid")
