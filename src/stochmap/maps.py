"""One random diffeomorphism increment and its closed-form inverse.

The forward map is T(x) = x + a(x) dt + sum_i e_i(x) eta_i.  Its inverse, to
the order the scheme works at, is another increment of the same shape with

    drift  z   = -a + sum_i (e_i . grad) e_i
    modes  b_i = -e_i

sharing the *same* eta_i.  `inverse_increment` returns that increment, so
`forward/inverse` and the variant-tensor transport all go through one code
path; inverting twice restores the original coefficients exactly.  Its basis
depends on the forward basis alone and is built once per basis
(`NoiseBasis.inverse`); its drift and modes reuse the forward basis's sums
over modes (`NoiseBasis.geometry`), which are even in e.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .calculus import sample_vector_at
from .grid import Array, VectorField
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

    def __post_init__(self):
        if self.increments.n_modes != self.basis.n_modes:
            raise ValueError(
                f"{self.increments.n_modes} increments for {self.basis.n_modes} modes"
            )
        bound = 0.5 * self.basis.grid.min_spacing * self.safety
        worst = _max_displacement(self)
        if worst >= bound:
            raise StepSizeError(
                f"max displacement {worst:.3e} exceeds {bound:.3e} "
                f"(= 0.5 * min spacing * safety {self.safety}); reduce dt or the noise amplitude"
            )

    @property
    def dt(self) -> float:
        return self.increments.dt

    @property
    def grid(self):
        return self.basis.grid


def _displacement_arrays(d: DiffeoIncrement) -> list[np.ndarray]:
    grid = d.basis.grid
    comps = []
    for p in range(grid.dim):
        acc = d.basis.drift.components[p].values * d.increments.dt
        for e, eta in zip(d.basis.modes, d.increments.eta):
            acc = acc + e.components[p].values * float(eta)
        comps.append(acc)
    return comps


def _max_displacement(d: DiffeoIncrement) -> float:
    comps = _displacement_arrays(d)
    return float(np.sqrt(sum(c**2 for c in comps)).max())


def displacement_field(d: DiffeoIncrement) -> VectorField:
    """a*dt + sum_i e_i*eta_i evaluated at the grid nodes."""
    return VectorField.from_arrays(d.basis.grid, _displacement_arrays(d))


def forward_map(d: DiffeoIncrement, points: Array) -> Array:
    """T(points), wrapped back into the fundamental domain.

    Coefficient fields are cubic-interpolated at the given points, which is
    exact when the points are grid nodes.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    out = pts + d.increments.dt * sample_vector_at(d.basis.drift, pts)
    for e, eta in zip(d.basis.modes, d.increments.eta):
        out = out + float(eta) * sample_vector_at(e, pts)
    return d.grid.wrap(out)


def inverse_increment(d: DiffeoIncrement) -> DiffeoIncrement:
    """The increment realising T^{-1}: drift -a + (e.grad)e, modes -e_i, same eta."""
    return DiffeoIncrement(d.basis.inverse, d.increments, d.safety)


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
