"""Periodic grids, sampled fields, and tensor-class tags.

Everything downstream assumes fields live on a uniform lattice over the
n-torus (n = 1, 2 or 3).  Fields are immutable snapshots: operations return
new fields and never mutate their inputs, so they are safe to evaluate from
concurrent workers.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Sequence, TypeVar

import numpy as np

Array = np.ndarray
T = TypeVar("T")


class TensorClass(Enum):
    """Which geometric object a sampled field stands for under remapping."""

    ZERO_FORM = "zero_form"
    ONE_FORM = "one_form"
    N_FORM = "n_form"
    N_VECTOR = "n_vector"
    VOLUME_FORM = "volume_form"
    MIXED_PAIR = "mixed_pair"


@dataclass(frozen=True)
class Grid:
    """Uniform lattice on the n-torus.

    Node ``k`` on axis ``p`` sits at ``k * spacing[p]`` with coordinates in
    ``[0, extents[p])``; there is no duplicated endpoint row.
    """

    shape: tuple[int, ...]
    extents: tuple[float, ...]

    def __post_init__(self):
        shape = tuple(int(n) for n in self.shape)
        extents = tuple(float(ell) for ell in self.extents)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "extents", extents)
        if not 1 <= len(shape) <= 3:
            raise ValueError(f"grid dimension must be 1, 2 or 3, got {len(shape)}")
        if len(extents) != len(shape):
            raise ValueError("extents and shape must have the same length")
        if any(n < 4 for n in shape):
            raise ValueError("need at least 4 points per axis (cubic interpolation stencil)")
        if any(ell <= 0 for ell in extents):
            raise ValueError("extents must be positive")

    @property
    def dim(self) -> int:
        return len(self.shape)

    @cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple(ell / n for ell, n in zip(self.extents, self.shape))

    @property
    def min_spacing(self) -> float:
        return min(self.spacing)

    @property
    def n_points(self) -> int:
        return int(np.prod(self.shape))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def volume(self) -> float:
        return float(np.prod(self.extents))

    def axis_coords(self, axis: int) -> Array:
        h = self.spacing[axis]
        return np.arange(self.shape[axis]) * h

    def coords(self) -> list[Array]:
        """Meshgrid node coordinates, one (shape)-array per axis."""
        axes = [self.axis_coords(p) for p in range(self.dim)]
        return list(np.meshgrid(*axes, indexing="ij"))

    def points(self) -> Array:
        """All node coordinates as an (n_points, dim) array, C order."""
        return np.stack([c.reshape(-1) for c in self.coords()], axis=-1)

    def wrap(self, points: Array) -> Array:
        """Map arbitrary points into the fundamental domain [0, L_p)."""
        pts = np.asarray(points, dtype=np.float64)
        return np.mod(pts, np.asarray(self.extents))

    def wrap_displacement(self, disp: Array) -> Array:
        """Wrap displacement vectors to the nearest-image representative."""
        ell = np.asarray(self.extents)
        return (np.asarray(disp) + 0.5 * ell) % ell - 0.5 * ell


class NonFiniteError(ValueError):
    """A field took a NaN or infinite value: the state has blown up."""


def named_field(name: str, build: Callable[..., T], *args) -> T:
    """``build(*args)``, with ``name`` put in front of a NonFiniteError it
    raises, so that a blow-up names the state variable it was found in."""
    try:
        return build(*args)
    except NonFiniteError as err:
        raise NonFiniteError(f"{name}: {err}") from err


@dataclass(frozen=True)
class ScalarField:
    """float64 samples of a scalar quantity on a Grid (row-major layout)."""

    grid: Grid
    values: Array

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != self.grid.shape:
            raise ValueError(f"values shape {vals.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(vals)):
            raise NonFiniteError("field values must be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def zeros(cls, grid: Grid) -> "ScalarField":
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def from_function(cls, grid: Grid, fn: Callable[..., Array]) -> "ScalarField":
        """Sample ``fn(x1, ..., xn)`` at the grid nodes."""
        return cls(grid, np.asarray(fn(*grid.coords()), dtype=np.float64) * np.ones(grid.shape))

    def with_values(self, values: Array) -> "ScalarField":
        return ScalarField(self.grid, values)

    # small arithmetic surface: enough to assemble right-hand sides and tests
    def __add__(self, other):
        return self.with_values(self.values + _raw(other))

    __radd__ = __add__

    def __sub__(self, other):
        return self.with_values(self.values - _raw(other))

    def __rsub__(self, other):
        return self.with_values(_raw(other) - self.values)

    def __mul__(self, other):
        return self.with_values(self.values * _raw(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self.with_values(self.values / _raw(other))

    def __neg__(self):
        return self.with_values(-self.values)

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())


def _raw(x):
    return x.values if isinstance(x, ScalarField) else x


@dataclass(frozen=True)
class VectorField:
    """dim ScalarField components on one shared Grid."""

    grid: Grid
    components: tuple[ScalarField, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if len(comps) != self.grid.dim:
            raise ValueError(f"expected {self.grid.dim} components, got {len(comps)}")
        for c in comps:
            if c.grid != self.grid:
                raise ValueError("all components must share the vector field's grid")

    @classmethod
    def from_arrays(cls, grid: Grid, arrays: Sequence[Array]) -> "VectorField":
        return cls(grid, tuple(ScalarField(grid, a) for a in arrays))

    @classmethod
    def constant(cls, grid: Grid, vec: Sequence[float]) -> "VectorField":
        if len(vec) != grid.dim:
            raise ValueError("constant vector length must equal grid dim")
        return cls(grid, tuple(ScalarField.constant(grid, v) for v in vec))

    @classmethod
    def zeros(cls, grid: Grid) -> "VectorField":
        return cls.constant(grid, [0.0] * grid.dim)

    @property
    def dim(self) -> int:
        return self.grid.dim

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.grid, tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.grid, tuple(a - b for a, b in zip(self.components, other.components)))

    def __mul__(self, scalar) -> "VectorField":
        return VectorField(self.grid, tuple(c * scalar for c in self.components))

    __rmul__ = __mul__

    def max_norm(self) -> float:
        """max over nodes of the Euclidean component norm."""
        return float(np.sqrt(sum(c.values**2 for c in self.components)).max())
