"""One random diffeomorphism increment and its closed-form inverse.

The forward map is T(x) = x + a(x) dt + sum_i e_i(x) eta_i.  Its inverse, to
the order the scheme works at, is another increment of the same shape with

    drift  z = -a + sum_i (e_i . grad) e_i

on the *same* modes e_i, driven by the negated increments -eta_i.
`inverse_increment` returns that increment, so `forward/inverse` and the
variant-tensor transport all go through one code path; inverting twice
restores the original basis and eta exactly.  Its noise displacement is
exactly -xi, so it reads the forward increment's xi with a sign
(`DiffeoIncrement.signed_noise`) rather than summing the modes again: its
guard subtracts xi from the drift, and the scalar classes' noise terms
(`forms._scalar`) flip their signs; -xi itself is formed only when a caller
reads it.  Its basis depends on the
forward basis alone and is built once per basis (`NoiseBasis.inverse`); it
holds no mode arrays of its own and shares the forward basis's sums over
modes (`NoiseBasis.geometry`).

The random part reaches the guard, the map and every operator's noise term
through one field, the noise displacement xi = sum_i eta_i e_i at the nodes
(`DiffeoIncrement.noise_displacement`), summed once per increment.

An increment may carry a batch of members: eta of shape (members, m) gives
xi of shape (members, *grid.shape), summed mode by mode in the same order as for one
member.  The step-size guard then checks each member on its own: per member,
the max over nodes of the squared displacement norm, then one sqrt, equal to
the max of the norms bit for bit.  It fails iff some member's own guard
would fail, and its message names the first such member
(`grid.member_error`).  The node-by-node
map (`forward_map`, and so `inverse_map`) takes one member at a time.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .calculus import sample_vector_at
from .grid import Array, VectorField, member_error, reworded
from .noise import BrownianIncrements, NoiseBasis, sample_increments


class Convention(Enum):
    """Which drift a run configuration claims its basis carries."""

    RAW = "raw"
    LU = "lu"
    SALT = "salt"


class StepSizeError(RuntimeError):
    """Displacement too large for the map to stay a discrete bijection."""


@dataclass(frozen=True)
class DiffeoIncrement:
    basis: NoiseBasis
    increments: BrownianIncrements
    safety: float = 1.0
    # on an inverse increment, the forward increment whose xi it negates
    forward: "DiffeoIncrement | None" = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.increments.n_modes != self.basis.n_modes:
            raise ValueError(
                f"{self.increments.n_modes} increments for {self.basis.n_modes} modes"
            )
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

    @property
    def signed_noise(self) -> tuple[list[Array], int]:
        """(xi, sign) with this increment's noise displacement sign * xi: an
        inverse increment gives its forward increment's xi and -1."""
        if self.forward is not None:
            return self.forward.noise_displacement, -1
        return self.noise_displacement, 1

    @cached_property
    def noise_displacement(self) -> list[Array]:
        """xi^p = sum_i eta_i e_i^p at the nodes, one array per axis (zeros
        without modes), summed in mode order; shape (members, *grid.shape)
        for eta of shape (members, m).  An inverse increment negates its
        forward increment's."""
        if self.forward is not None:
            return [np.negative(x) for x in self.forward.noise_displacement]
        eta = self.increments.eta
        shape = self.batch_shape + self.grid.shape
        xi = [np.zeros(shape) for _ in range(self.grid.dim)]
        term = np.empty(shape)
        for i, e in enumerate(self.basis.modes):
            eta_i = eta[..., i].reshape(self.batch_shape + (1,) * self.grid.dim)
            for p in range(self.grid.dim):
                xi[p] += np.multiply(e.components[p].values, eta_i, out=term)
        return xi


def _max_displacement(d: DiffeoIncrement) -> Array:
    """Per member, the max over nodes of |a dt + xi|: the max of the squared
    norm, then one sqrt, which equals the max of the norms bit for bit (sqrt
    is monotone and correctly rounded).

    An inverse increment subtracts its forward xi (`signed_noise`), which
    squares to the bits of adding -xi.  A basis without drift squares xi
    itself, into arrays of its own, since xi is the cached displacement the
    operators read: the squares are those of 0 dt + xi.
    """
    xi, sign = d.signed_noise
    if d.basis.has_drift:
        combine = np.add if sign > 0 else np.subtract
        comps = [combine(c.values * d.dt, x) for c, x in zip(d.basis.drift.components, xi)]
        squared = np.multiply(comps[0], comps[0], out=comps[0])
        for c in comps[1:]:
            squared += np.multiply(c, c, out=c)
    else:
        squared, term = np.multiply(xi[0], xi[0]), None
        for x in xi[1:]:
            term = np.multiply(x, x, out=term)
            squared += term
    return np.sqrt(squared.max(axis=d.grid.trailing_axes))


def require_single_member(d: DiffeoIncrement, what: str) -> None:
    """Raise ValueError naming ``what`` if ``d`` is batched over members."""
    if d.batch_shape:
        raise ValueError(f"{what} takes one member; got an increment batched over {d.batch_shape}")


def displacement_field(d: DiffeoIncrement) -> VectorField:
    """a*dt + xi, with xi = sum_i e_i*eta_i, evaluated at the grid nodes."""
    return VectorField.from_arrays(
        d.grid, [c.values * d.dt + xi for c, xi in zip(d.basis.drift.components, d.noise_displacement)])


def forward_map(d: DiffeoIncrement, points: Array) -> Array:
    """T(points), wrapped back into the fundamental domain.

    The node displacement `displacement_field` is cubic-interpolated at the
    given points, which is exact when the points are grid nodes.  The
    interpolation is linear in the node values, so this is the map of the
    interpolated drift and modes.
    """
    require_single_member(d, "forward_map")
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    return d.grid.wrap(pts + sample_vector_at(displacement_field(d), pts))


def inverse_increment(d: DiffeoIncrement) -> DiffeoIncrement:
    """The increment realising T^{-1}: drift -a + (e.grad)e, same modes, eta
    negated, and the noise displacement -xi, read from ``d``.

    A step-size guard failure of the inverse says so: "inverse map: ...".
    """
    try:
        return DiffeoIncrement(d.basis.inverse, BrownianIncrements(d.dt, -d.increments.eta), d.safety, d)
    except StepSizeError as err:
        raise reworded(err, "inverse map: ") from None


def inverse_map(d: DiffeoIncrement, points: Array) -> Array:
    return forward_map(inverse_increment(d), points)


def composition_residual(d: DiffeoIncrement) -> float:
    """RMS over nodes of the periodic distance |T(T^{-1}(x)) - x|."""
    pts = d.grid.points()
    roundtrip = forward_map(d, inverse_map(d, pts))
    delta = d.grid.wrap_displacement(roundtrip - pts)
    return float(np.sqrt(np.mean(np.sum(delta**2, axis=-1))))


def make_increment(basis: NoiseBasis, dt: float, rng: np.random.Generator,
                   safety: float = 1.0) -> DiffeoIncrement:
    """Sample fresh Brownian increments and wrap them with the basis."""
    return DiffeoIncrement(basis, sample_increments(basis.n_modes, dt, rng), safety)
