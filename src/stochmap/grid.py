"""Periodic grids, sampled fields, and tensor-class tags.

Fields live on a uniform lattice over the n-torus (n = 1, 2 or 3) and are
immutable snapshots, so they are safe to evaluate from concurrent workers.
A field's values may carry one leading member axis, ``(members,
*grid.shape)``: a batch of ensemble members stepped as one array, each
member with the bits of its own single-member call.  What measures or
writes one field takes one member and raises ValueError on a batch
(`ScalarField.require_single_member`), and a check that fails on one member
says which (`member_error`).

Importing this module has glibc's malloc keep freed arrays in the process
(`keep_freed_heap`); only the addresses of arrays change, never a value.
"""
from __future__ import annotations

import ctypes
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Sequence, TypeVar

import numpy as np

Array = np.ndarray
T = TypeVar("T")
E = TypeVar("E", bound=Exception)
F = TypeVar("F", "ScalarField", "VectorField")

# Grid points per array when ensemble members are stepped as one batch: 4
# members at 64^2 (`Grid.members_per_batch`).  Every array of a step grows
# with the batch: at 8 members the weak_mean benchmark ran a few per cent
# faster than at 4, but its peak RSS rose 5.4 % over one member at a time,
# past the benchmark's 5 % bound (2-core VM, numpy 2.4).
BATCH_POINTS = 1 << 14

# glibc <malloc.h> parameter numbers and the values set at import.  32 MiB is
# glibc's own ceiling for its dynamic mmap threshold on 64-bit.  The mmap
# threshold must be set with the trim threshold: setting either one freezes
# the dynamic threshold, and trim alone would leave it at 128 KiB and put
# every 256^2 array on its own mmap (434 000 faults per tsw_256 call and 1.9x
# the time with glibc's defaults; 2-core VM).
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD_BYTES = 32 << 20
TRIM_THRESHOLD_BYTES = 64 << 20


def keep_freed_heap() -> bool:
    """Have glibc's malloc keep freed arrays in the process, once for the
    whole process, so that the arrays a step frees serve the next step
    instead of going back to the kernel and being faulted in again, page by
    page.  Arrays of up to `MMAP_THRESHOLD_BYTES` come from the heap, and at
    most `TRIM_THRESHOLD_BYTES` of freed heap is kept at its top; larger
    arrays still get their own mmap.  True if both parameters were set;
    without a glibc ``mallopt`` it sets nothing and returns False."""
    if not sys.platform.startswith("linux"):
        return False
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # never the trim threshold alone (see above)
    return bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)) and bool(
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES))


KEEPS_FREED_HEAP = keep_freed_heap()


class TensorClass(Enum):
    """Which geometric object a sampled field stands for under remapping."""

    ZERO_FORM = "zero_form"
    ONE_FORM = "one_form"
    N_FORM = "n_form"
    N_VECTOR = "n_vector"
    VOLUME_FORM = "volume_form"


@dataclass(frozen=True)
class Grid:
    """Uniform lattice on the n-torus.

    Node ``k`` on axis ``p`` sits at ``k * spacing[p]`` with coordinates in
    ``[0, extents[p])``; there is no duplicated endpoint row.  The derived
    scalars (`dim`, `spacing`, `n_points`, `cell_volume`, `volume`) are
    computed once per grid, on first read.
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
        if not all(0 < ell < np.inf for ell in extents):
            raise ValueError(f"extents must be positive and finite, got {extents}")

    @cached_property
    def dim(self) -> int:
        return len(self.shape)

    @cached_property
    def trailing_axes(self) -> tuple[int, ...]:
        """The grid axes counted from the end of an array: a reduction over
        them keeps a leading member axis."""
        return tuple(range(-self.dim, 0))

    @cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple(ell / n for ell, n in zip(self.extents, self.shape))

    @property
    def min_spacing(self) -> float:
        return min(self.spacing)

    @cached_property
    def n_points(self) -> int:
        return int(np.prod(self.shape))

    @property
    def members_per_batch(self) -> int:
        """Ensemble members stepped as one array: BATCH_POINTS // n_points,
        at least 1."""
        return max(1, BATCH_POINTS // self.n_points)

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @cached_property
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
        """Map arbitrary points into the fundamental domain [0, L_p).

        ``mod`` rounds a tiny negative coordinate up to ``L_p`` itself
        (``np.mod(-1e-17, 2 pi) == 2 pi``); such an entry becomes 0.0, the
        same point of the torus."""
        ell = np.asarray(self.extents)
        out = np.mod(np.asarray(points, dtype=np.float64), ell)
        out[out == ell] = 0.0
        return out

    def wrap_displacement(self, disp: Array) -> Array:
        """Wrap displacement vectors to the nearest-image representative."""
        ell = np.asarray(self.extents)
        return (np.asarray(disp) + 0.5 * ell) % ell - 0.5 * ell


class NonFiniteError(ValueError):
    """A field took a NaN or infinite value: the state has blown up."""


def member_error(kind: type[E], message: str, member: int | None = None) -> E:
    """``kind(message)``, or for member ``j`` of a batch ``kind("member j: "
    + message)``.  The error keeps ``member`` and the member-free ``detail``,
    so a caller can add to the message (`reworded`) or number the member
    within a larger ensemble (`runner`)."""
    err = kind(message if member is None else f"member {member}: {message}")
    err.member, err.detail = member, message
    return err


def reworded(err: E, prefix: str) -> E:
    """``err`` again, with ``prefix`` put in front of its message, after the
    member it names."""
    return member_error(type(err), prefix + getattr(err, "detail", str(err)), getattr(err, "member", None))


def named_field(name: str, build: Callable[..., T], *args) -> T:
    """``build(*args)``, with ``name`` put in front of a NonFiniteError it
    raises, so that a blow-up names the state variable it was found in."""
    try:
        return build(*args)
    except NonFiniteError as err:
        raise reworded(err, f"{name}: ") from err


@dataclass(frozen=True)
class ScalarField:
    """float64 samples of a scalar quantity on a Grid (row-major layout)."""

    grid: Grid
    values: Array

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim not in (self.grid.dim, self.grid.dim + 1) or vals.shape[-self.grid.dim:] != self.grid.shape:
            raise ValueError(f"values shape {vals.shape} is not grid shape {self.grid.shape}"
                             " with at most one leading member axis")
        if not np.all(np.isfinite(vals)):
            member = None
            if vals.ndim > self.grid.dim:   # the first member with a non-finite value
                member = int(np.argmin(np.isfinite(vals).all(axis=self.grid.trailing_axes)))
            raise member_error(NonFiniteError, "field values must be finite", member)
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

    @property
    def batch_shape(self) -> tuple[int, ...]:
        """The member axis: () for one member, (members,) for a batch."""
        return self.values.shape[:-self.grid.dim]

    def require_single_member(self, what: str) -> None:
        """Raise ValueError naming ``what`` if the field is a batch of members."""
        if self.batch_shape:
            raise ValueError(f"{what} takes one member; got a field batched over {self.batch_shape}")

    def members(self) -> list["ScalarField"]:
        """Each member's field, a view into the batch; [self] for one member."""
        return [self.with_values(v) for v in self.values] if self.batch_shape else [self]

    # small arithmetic surface: enough to assemble right-hand sides and tests
    def __add__(self, other):
        return self.with_values(self.values + _raw(other))

    __radd__ = __add__

    def __sub__(self, other):
        return self.with_values(self.values - _raw(other))

    def __mul__(self, other):
        return self.with_values(self.values * _raw(other))

    __rmul__ = __mul__

    def min(self) -> float:
        self.require_single_member("ScalarField.min")
        return float(self.values.min())

    def max(self) -> float:
        self.require_single_member("ScalarField.max")
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

    def max_norm(self) -> float | Array:
        """max over nodes of the Euclidean component norm; for a batch, an
        array with each member's own max (the max is exact, so each has the
        bits of its own call)."""
        peak = np.sqrt(sum(c.values**2 for c in self.components)).max(axis=self.grid.trailing_axes)
        return peak if peak.ndim else float(peak)


def stack_members(fields: Sequence[F]) -> F:
    """One field batched over members from one field per member, in order
    (all ScalarFields or all VectorFields on one grid)."""
    first = fields[0]
    if isinstance(first, VectorField):
        return VectorField(first.grid, tuple(stack_members([f.components[p] for f in fields])
                                             for p in range(first.dim)))
    return ScalarField(first.grid, np.stack([f.values for f in fields]))
