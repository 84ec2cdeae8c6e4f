"""Noise bases and Brownian increments driving the random maps.

A basis holds the deterministic drift ``a`` and the mode fields ``e_i`` of the
per-step map x -> x + a*dt + sum_i e_i * deta_i.  Modes here are synthesised
from a finite Fourier dictionary, which keeps derivatives analytic for the
test oracles and makes divergence-free projection exact.  `mode_gradient` is
the one implementation of a mode's discrete gradient.  The drifts see the
modes only through sums over them (the variance tensor sum_i e_i e_i^T and
its companions), whose one home is `NoiseBasis.geometry`: built once per set
of modes, and shared by every basis with the same modes and another drift.
The inverse basis is one of those: same modes, drift sum_i (e_i . grad) e_i - a,
driven by negated eta.  From the geometry and the drift, each basis builds on
first read the step-invariant coefficient tables of the scalar tensor classes
(`volume_drift`, `nvector_rows`, `flux_velocity`), which the one scalar
assembler in `forms` reads.

Divergence-free means divergence-free *for the discrete operator*: wave
amplitudes are projected orthogonal to the modified wavevector
sin(kappa_p h_p)/h_p (the centered-difference symbol), so the measured
divergence vanishes to round-off, not just to O(h^2).  For axis-aligned
wavevectors this coincides with the analytic projection.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .calculus import centered_difference, divergence
from .grid import Array, Grid, VectorField


@dataclass(frozen=True)
class ModeSpec:
    """One Fourier entry: integer wavevector (cycles per domain), amplitude
    vector, solenoidal flag, and wave type ("sin", "cos" or "both")."""

    k: tuple[int, ...]
    amplitude: tuple[float, ...]
    solenoidal: bool = True
    wave: str = "sin"

    def __post_init__(self):
        object.__setattr__(self, "k", tuple(self.k))
        object.__setattr__(self, "amplitude", tuple(float(a) for a in self.amplitude))
        if self.wave not in ("sin", "cos", "both"):
            raise ValueError(f"wave must be sin, cos or both, got {self.wave!r}")
        for kk in self.k:
            if float(kk) != int(kk):
                raise ValueError(f"wavevector entries must be integers (cycles per domain), got {self.k}")
        object.__setattr__(self, "k", tuple(int(kk) for kk in self.k))


@dataclass(frozen=True)
class NoiseBasis:
    """Mode fields e_i and drift a on one grid; `geometry` holds their sums."""

    grid: Grid
    modes: tuple[VectorField, ...]
    drift: VectorField
    divergence_free: bool = False

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        for e in self.modes:
            if e.grid != self.grid:
                raise ValueError("all modes must live on the basis grid")
        if self.drift.grid != self.grid:
            raise ValueError("drift must live on the basis grid")
        if self.divergence_free:
            for i, e in enumerate(self.modes):
                div_max = float(np.abs(divergence(e).values).max())
                scale = max(e.max_norm(), 1.0)
                if div_max > 1e-12 * scale:
                    raise ValueError(f"mode {i} claims divergence-free but max|div| = {div_max:.3e}")

    @cached_property
    def has_drift(self) -> bool:
        return any(np.any(c.values) for c in self.drift.components)

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @property
    def is_null(self) -> bool:
        """No modes and identically-zero drift: perturbation degenerates to nothing."""
        return self.n_modes == 0 and not self.has_drift

    @cached_property
    def geometry(self) -> "BasisGeometry":
        """The sums over modes, built on first use."""
        return BasisGeometry.of(self.grid, self.modes)

    @cached_property
    def scales(self) -> tuple[float, float]:
        """(velocity scale, diffusivity) that the map coefficients add to the
        stability bound: max |a| and (1/2) sum_i max |e_i|^2."""
        return self.drift.max_norm(), 0.5 * sum(e.max_norm() ** 2 for e in self.modes)

    def with_drift(self, drift: VectorField) -> "NoiseBasis":
        """The same modes with another drift, sharing this basis's geometry."""
        other = NoiseBasis(self.grid, self.modes, drift, self.divergence_free)
        other.__dict__["geometry"] = self.geometry
        return other

    @property
    def inverse(self) -> "NoiseBasis":
        """Basis of the inverse map, built once per basis: the same modes with
        drift sum_i (e_i . grad) e_i - a, driven by negated eta (see
        `maps.inverse_increment`).  Its own inverse is this basis, held by a
        weak reference: a cycle would keep both bases and their tables alive
        until a full garbage collection."""
        inverse = self.__dict__.get("_inverse", lambda: None)()
        if inverse is None:
            inverse = self.with_drift(ito_drift_correction(self, 1.0) - self.drift)
            inverse.__dict__["_inverse"] = weakref.ref(self)
            self.__dict__["_inverse"] = lambda: inverse
        return inverse

    # Step-invariant coefficient tables of the scalar classes (`forms._scalar`),
    # each built on first read, so a run holds only the tables it reads.

    @cached_property
    def volume_drift(self) -> Array:
        """div a + (1/2) sum_i J_i: the volume multiplier's drift and the
        pointwise n-form's c0."""
        div_a = sum(centered_difference(c.values, p, self.grid) for p, c in enumerate(self.drift.components))
        return div_a + 0.5 * self.geometry.wedge

    @cached_property
    def nvector_rows(self) -> tuple[Array, list[Array]]:
        """The n-vector's (c0, c1): div a + (1/2) sum_i J_i - sum_i (e_i . grad)(div e_i)
        and sum_i (e_i . grad) e_i - sum_i e_i div e_i - a."""
        geo = self.geometry
        return (self.volume_drift - geo.e_grad_div,
                [sa - ede - c.values for sa, ede, c in zip(geo.self_adv, geo.e_div_e, self.drift.components)])

    @cached_property
    def flux_velocity(self) -> list[Array]:
        """b = a + (1/2)(sum_i e_i div e_i - sum_i (e_i . grad) e_i): the flux
        n-form's bracket velocity."""
        geo = self.geometry
        return [c.values + 0.5 * (ede - sa) for c, ede, sa in zip(self.drift.components, geo.e_div_e, geo.self_adv)]


@dataclass(frozen=True)
class BasisGeometry:
    """The sums over modes that every drift reads.

    amat[p][q]  = sum_i e_i^p e_i^q, the variance tensor A (symmetric; the
                  two triangles hold the same arrays)
    wedge       = sum_i J_i, with J the `jacobian_wedge` of each mode
    e_div_e[p]  = sum_i e_i^p div e_i
    self_adv[p] = sum_i (e_i . grad) e_i^p
    e_grad_div  = sum_i (e_i . grad)(div e_i)
    """

    amat: list[list[Array]]
    wedge: Array
    e_div_e: list[Array]
    self_adv: list[Array]
    e_grad_div: Array

    @classmethod
    def of(cls, grid: Grid, modes: Sequence[VectorField]) -> "BasisGeometry":
        dim = grid.dim
        upper = {(p, q): np.zeros(grid.shape) for p in range(dim) for q in range(p, dim)}
        wedge = np.zeros(grid.shape)
        e_div_e = [np.zeros(grid.shape) for _ in range(dim)]
        self_adv = [np.zeros(grid.shape) for _ in range(dim)]
        e_grad_div = np.zeros(grid.shape)
        for mode in modes:
            e = [c.values for c in mode.components]
            de, dive = mode_gradient(e, grid)
            wedge += jacobian_wedge(de, dive)
            for p in range(dim):
                e_div_e[p] += e[p] * dive
                e_grad_div += e[p] * centered_difference(dive, p, grid)
                self_adv[p] += sum(de[q][p] * e[q] for q in range(dim))
                for q in range(p, dim):
                    upper[p, q] += e[p] * e[q]
        amat = [[upper[min(p, q), max(p, q)] for q in range(dim)] for p in range(dim)]
        return cls(amat, wedge, e_div_e, self_adv, e_grad_div)


@dataclass(frozen=True)
class BrownianIncrements:
    """One draw of the mode increments: dt plus eta_i ~ N(0, dt)."""

    dt: float
    eta: Array

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        eta = np.asarray(self.eta, dtype=np.float64).reshape(-1)
        object.__setattr__(self, "eta", eta)

    @property
    def n_modes(self) -> int:
        return self.eta.shape[0]


def modified_wavevector(grid: Grid, k: Sequence[int]) -> Array:
    """Symbol of the centered difference on the wave exp(i kappa.x)."""
    kappa = 2.0 * np.pi * np.asarray(k, dtype=np.float64) / np.asarray(grid.extents)
    h = np.asarray(grid.spacing)
    return np.sin(kappa * h) / h


def mode_amplitude(grid: Grid, spec: ModeSpec) -> Array:
    """The amplitude vector of a ModeSpec on the grid: projected orthogonal to
    the modified wavevector when solenoidal, which fails if nothing is left."""
    amp = np.asarray(spec.amplitude, dtype=np.float64)
    if amp.shape != (grid.dim,):
        raise ValueError(f"amplitude must have {grid.dim} entries")
    if spec.solenoidal:
        ktil = modified_wavevector(grid, spec.k)
        k2 = float(ktil @ ktil)
        if k2 > 0:
            amp = amp - (amp @ ktil) / k2 * ktil
            if float(np.abs(amp).max()) < 1e-15:
                raise ValueError(f"amplitude of mode k={spec.k} is parallel to the wavevector; "
                                 "solenoidal projection leaves a zero field")
    return amp


def fourier_mode_field(grid: Grid, spec: ModeSpec, wave: str) -> VectorField:
    """Realise one wave of a ModeSpec as a vector field on the grid."""
    kappa = 2.0 * np.pi * np.asarray(spec.k, dtype=np.float64) / np.asarray(grid.extents)
    amp = mode_amplitude(grid, spec)
    coords = grid.coords()
    phase = sum(kappa[p] * coords[p] for p in range(grid.dim))
    osc = np.sin(phase) if wave == "sin" else np.cos(phase)
    return VectorField.from_arrays(grid, [amp[p] * osc for p in range(grid.dim)])


def build_fourier_basis(grid: Grid, mode_specs: Sequence[ModeSpec],
                        drift: VectorField | None = None) -> NoiseBasis:
    """Assemble a NoiseBasis from Fourier mode specs (drift defaults to zero).

    A spec with ``wave="both"`` contributes a sin mode and a cos mode.  The
    zero wavevector yields a constant field (once, whatever the wave type).
    """
    modes: list[VectorField] = []
    all_solenoidal = True
    for spec in mode_specs:
        if all(kk == 0 for kk in spec.k):
            modes.append(VectorField.constant(grid, spec.amplitude))
            continue
        waves = ("sin", "cos") if spec.wave == "both" else (spec.wave,)
        for w in waves:
            modes.append(fourier_mode_field(grid, spec, w))
        all_solenoidal = all_solenoidal and spec.solenoidal
    if drift is None:
        drift = VectorField.zeros(grid)
    flag = all_solenoidal and len(mode_specs) > 0
    return NoiseBasis(grid, tuple(modes), drift, divergence_free=flag)


def sample_increments(m: int, dt: float, rng: np.random.Generator) -> BrownianIncrements:
    """Draw eta_i ~ N(0, dt) for i = 1..m; deterministic given the rng state."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    return BrownianIncrements(dt=dt, eta=rng.normal(0.0, np.sqrt(dt), size=m))


def mode_gradient(e: Sequence[Array], grid: Grid) -> tuple[list[list[Array]], Array]:
    """Gradient de[p][q] = d_p e^q of one mode's component arrays, and div e."""
    de = [[centered_difference(e[q], p, grid) for q in range(grid.dim)] for p in range(grid.dim)]
    return de, sum(de[p][p] for p in range(grid.dim))


def jacobian_wedge(de: list[list[Array]], dive: Array) -> Array:
    """J = (div e)^2 - sum_pq (d_p e^q)(d_q e^p), identically zero in 1D."""
    acc = dive * dive
    for p in range(len(de)):
        for q in range(len(de)):
            acc = acc - de[p][q] * de[q][p]
    return acc


def ito_drift_correction(basis: NoiseBasis, factor: float = 1.0) -> VectorField:
    """factor * sum_i (e_i . grad) e_i, the drift relating the map conventions.

    factor 1 gives the drift that makes the map reproduce transport-noise
    equations written with the Ito advecting velocity; factor 1/2 gives the
    Stratonovich-corrected drift.
    """
    return VectorField.from_arrays(basis.grid, [factor * c for c in basis.geometry.self_adv])
