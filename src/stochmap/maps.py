"""One random diffeomorphism increment and its closed-form inverse.

The forward map is T(x) = x + a(x) dt + sum_i e_i(x) eta_i.  Its inverse, to
the order the scheme works at, is an increment of the same shape on the same
modes, with drift -a + sum_i (e_i . grad) e_i and negated eta
(`inverse_increment`); inverting twice restores the basis and eta exactly.
The random part reaches the guard, the map and every operator through one
field, the noise displacement xi = sum_i eta_i e_i at the nodes, summed once
per increment; the inverse owns the forward's, negated.  Eta of shape
(members, m) makes a batch of members.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .calculus import sample_at
from .grid import Array, VectorField, member_error, reworded
from .noise import BrownianIncrements, NoiseBasis, sample_increments


class Convention(Enum):
    """Which drift a run configuration claims its basis carries."""

    RAW = "raw"
    LU = "lu"
    SALT = "salt"


class StepSizeError(RuntimeError):
    """Displacement of some node at or above ``0.5 * min spacing * safety``.

    Below that bound each row of the discrete displacement gradient has a
    norm under ``safety / 2``, so its 2-norm is under ``sqrt(dim) * safety / 2``,
    and the map is a discrete bijection (``det J > 0``) only while
    ``safety < 2 / sqrt(dim)``: 1.41 in 2D, 1.15 in 3D.  At a larger safety a
    map can fold and pass this guard; a 64^2 grid with one compressive mode at
    safety 3 gives ``min det J = -0.47``.  The ROADMAP.md item "Guards that
    certify from per-basis bounds" proposes the ``det J`` check that would
    catch it."""


@dataclass(frozen=True)
class DiffeoIncrement:
    """A basis and one draw of its increments, checked by the step-size
    guard on construction.  A batch fails iff some member's own guard would,
    and the error names the first such member.

    ``noise_displacement`` is xi^p = sum_i eta_i e_i^p at the nodes, one
    array per axis (zeros without modes), summed in mode order from the first
    mode's product on construction unless given; shape (members, *grid.shape)
    for eta of shape (members, m).  An inverse increment is given its forward
    increment's xi negated (`inverse_increment`)."""

    basis: NoiseBasis
    increments: BrownianIncrements
    safety: float = 1.0
    noise_displacement: list[Array] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.increments.n_modes != self.basis.n_modes:
            raise ValueError(
                f"{self.increments.n_modes} increments for {self.basis.n_modes} modes"
            )
        if self.noise_displacement is None:
            object.__setattr__(self, "noise_displacement", _summed_noise(self))
        bound = 0.5 * self.basis.grid.min_spacing * self.safety
        worst = _max_displacement(self).reshape(-1)   # one entry per member
        over = worst >= bound
        if over.any():
            member = int(np.argmax(over))   # the first failing member
            raise member_error(
                StepSizeError,
                f"max displacement {worst[member]:.3e} exceeds {bound:.3e} "
                f"(= 0.5 * min spacing * safety {self.safety}); reduce dt or the noise amplitude",
                member if self.batch_shape else None,
            )

    @property
    def dt(self) -> float:
        return self.increments.dt

    @property
    def grid(self):
        return self.basis.grid

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.increments.batch_shape


def _summed_noise(d: DiffeoIncrement) -> list[Array]:
    """sum_i eta_i e_i^p, one array per axis, in mode order."""
    modes = d.basis.modes
    if not modes:
        return [np.zeros(d.batch_shape + d.grid.shape) for _ in range(d.grid.dim)]
    eta = d.increments.eta.reshape(d.batch_shape + (1,) * d.grid.dim + (len(modes),))
    xi = [np.multiply(c.values, eta[..., 0]) for c in modes[0].components]
    term = None
    for i, e in enumerate(modes[1:], 1):
        for p in range(d.grid.dim):
            term = np.multiply(e.components[p].values, eta[..., i], out=term)
            xi[p] += term
    return xi


def _max_displacement(d: DiffeoIncrement) -> Array:
    """Per member, the max over nodes of |a dt + xi|: the max of the squared
    norm, then one sqrt, which equals the max of the norms bit for bit (sqrt
    is monotone and correctly rounded).  A basis without drift squares xi
    itself, whose squares are those of 0 dt + xi; the squares go into arrays
    of the guard's own, since xi is the displacement the operators read.
    """
    disp = d.noise_displacement
    if d.basis.has_drift:
        disp = [c.values * d.dt + x for c, x in zip(d.basis.drift.components, disp)]
    squared, term = np.multiply(disp[0], disp[0]), None
    for x in disp[1:]:
        term = np.multiply(x, x, out=term)
        squared += term
    return np.sqrt(squared.max(axis=d.grid.trailing_axes))


def displacement_field(d: DiffeoIncrement) -> VectorField:
    """a*dt + xi, with xi = sum_i e_i*eta_i, evaluated at the grid nodes."""
    return VectorField.from_arrays(
        d.grid, [c.values * d.dt + xi for c, xi in zip(d.basis.drift.components, d.noise_displacement)])


def forward_map(d: DiffeoIncrement, points: Array | None = None) -> Array:
    """T(points), wrapped back into the fundamental domain, shape (N, dim);
    for an increment batched over M members, shape (M, N, dim), with
    ``points``, if given, one set of shape (M, N, dim) per member.

    Without ``points``, T at the grid nodes in C order: the nodes plus the
    node displacement (`displacement_field`), with no interpolation.  Given
    points, the node displacement is cubic-interpolated at them.  Passing
    ``grid.points()`` agrees with the node form only to round-off (9.7e-14
    at 256^2): ``x_k / h`` need not round to ``k``, and Catmull-Rom
    reproduces node values exactly only in exact arithmetic.
    """
    disp = displacement_field(d)
    if points is None:
        at_nodes = np.stack([c.values.reshape(d.batch_shape + (-1,)) for c in disp.components], axis=-1)
        return d.grid.wrap(d.grid.points() + at_nodes)
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    return d.grid.wrap(pts + sample_at(disp, pts))


def inverse_increment(d: DiffeoIncrement) -> DiffeoIncrement:
    """The increment realising T^{-1}: drift -a + (e.grad)e, same modes, eta
    negated, and its own noise displacement -xi, ``d``'s negated, which has
    the bits of the sum over the modes with -eta.

    A step-size guard failure of the inverse says so: "inverse map: ...".
    """
    xi = [np.negative(x) for x in d.noise_displacement]
    try:
        return DiffeoIncrement(d.basis.inverse, BrownianIncrements(d.dt, -d.increments.eta), d.safety, xi)
    except StepSizeError as err:
        raise reworded(err, "inverse map: ") from None


def inverse_map(d: DiffeoIncrement, points: Array | None = None) -> Array:
    """T^{-1}(points); without ``points``, at the grid nodes (`forward_map`)."""
    return forward_map(inverse_increment(d), points)


def composition_residual(d: DiffeoIncrement) -> float:
    """RMS over nodes of the periodic distance |T(T^{-1}(x)) - x|."""
    roundtrip = forward_map(d, inverse_map(d))
    delta = d.grid.wrap_displacement(roundtrip - d.grid.points())
    return float(np.sqrt(np.mean(np.sum(delta**2, axis=-1))))


def make_increment(basis: NoiseBasis, dt: float, rng: np.random.Generator,
                   safety: float = 1.0) -> DiffeoIncrement:
    """Sample fresh Brownian increments and wrap them with the basis."""
    return DiffeoIncrement(basis, sample_increments(basis.n_modes, dt, rng), safety)
