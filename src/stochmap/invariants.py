"""Conserved-quantity diagnostics: pure measurement functions.

Flux-form mass is conserved to round-off; every other identity is verified
as a per-step drift vanishing at order > 1 in dt.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calculus import curl, dot, integrate, member_integrals
from .forms import NFormMode, perturb_1form, perturb_nform
from .grid import ScalarField, VectorField
from .maps import DiffeoIncrement
from .models import TSWState


@dataclass
class DiagnosticSeries:
    """Named time series with strictly increasing sample times."""

    name: str
    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def append(self, t: float, value: float) -> None:
        if self.times and t <= self.times[-1]:
            raise ValueError(f"times must be strictly increasing ({t} after {self.times[-1]})")
        self.times.append(float(t))
        self.values.append(float(value))

    def to_csv(self) -> str:
        lines = [f"time,{self.name}"]
        lines += [f"{t!r},{v!r}" for t, v in zip(self.times, self.values)]
        return "\n".join(lines) + "\n"


def product_integral(f: ScalarField, g: ScalarField, m: int) -> float:
    """Integral of f g^m (m = 0 reduces to the total integral of f)."""
    if f.grid != g.grid:
        raise ValueError("product_integral needs fields on one grid")
    if m < 0 or int(m) != m:
        raise ValueError(f"power m must be a nonnegative integer, got {m}")
    return integrate(f.with_values(f.values * g.values ** int(m)))


def pairing_integral(f: ScalarField, g: ScalarField) -> float:
    """Integral of f^2 g, the n-form / n-vector pairing invariant."""
    if f.grid != g.grid:
        raise ValueError("pairing_integral needs fields on one grid")
    return integrate(f.with_values(f.values**2 * g.values))


def vorticity_commutation_defect(u: VectorField, d: DiffeoIncrement) -> np.ndarray:
    """curl(1-form increment of u) minus the n-form increment of curl u.

    On the torus the total vorticity integral is identically zero, so the
    testable conservation statement is this commutation of the exterior
    derivative with the remap.
    """
    if u.dim != 2:
        raise ValueError("vorticity commutation is a 2D diagnostic")
    lhs = curl(perturb_1form(u, d).realized)
    rhs = perturb_nform(curl(u), d, NFormMode.POINTWISE).realized
    return lhs.values - rhs.values


def helicity(u: VectorField) -> float:
    """Integral of u . curl u (3D)."""
    if u.dim != 3:
        raise ValueError("helicity is a 3D diagnostic")
    return integrate(dot(u, curl(u)))


Invariants = tuple[float, float, tuple[float, float]]


def tsw_invariants(state: TSWState) -> Invariants | list[Invariants]:
    """(total energy, total mass, total momentum) of a shallow-water state.

    E = int (1/2)(h |u|^2 + h^2 Theta),  M = int h,  Mom = int h u.

    For a state batched over members, a list with one tuple per member.
    The densities are formed over the batch, and each member's integrals
    are sums over its own contiguous view, which have the bits of its own
    call.  An overflow in a density names the member it was found in.
    """
    h, theta, u = state.h, state.theta, state.u
    speed2 = sum(c.values**2 for c in u.components)
    densities = [h.with_values(0.5 * (h.values * speed2 + h.values**2 * theta.values)), h]
    densities += [h * c for c in u.components]
    if not h.batch_shape:
        energy, mass, *momentum = (integrate(f) for f in densities)
        return energy, mass, tuple(momentum)
    sums = [member_integrals(f) for f in densities]
    return [(energy, mass, tuple(momentum)) for energy, mass, *momentum in zip(*sums)]
