"""Shared construction helpers for the batch runner and the verify suite."""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .config import RunConfig
from .grid import Grid, ScalarField, VectorField, stack_members
from .models import TSWParams, TSWState
from .noise import NoiseBasis, build_fourier_basis, ito_drift_correction


def smooth_scalar(grid: Grid, rng: np.random.Generator, offset: float = 0.0,
                  amplitude: float = 1.0, kmax: int = 2) -> ScalarField:
    """Band-limited random field: offset plus low-wavenumber cosines with
    seeded coefficients, scaled so the fluctuation maximum is ~amplitude."""
    coords = grid.coords()
    acc = np.zeros(grid.shape)
    ks = _wavevectors(grid.dim, kmax)
    coeffs = rng.normal(size=len(ks))
    phases = rng.uniform(0, 2 * np.pi, size=len(ks))
    for (k, c, ph) in zip(ks, coeffs, phases):
        kappa = 2.0 * np.pi * np.asarray(k) / np.asarray(grid.extents)
        phase = sum(kappa[p] * coords[p] for p in range(grid.dim))
        acc += c * np.cos(phase + ph)
    peak = np.abs(acc).max()
    if peak > 0:
        acc *= amplitude / peak
    return ScalarField(grid, offset + acc)


def smooth_vector(grid: Grid, rng: np.random.Generator, amplitude: float = 1.0,
                  kmax: int = 2) -> VectorField:
    return VectorField(
        grid,
        tuple(smooth_scalar(grid, rng, 0.0, amplitude, kmax) for _ in range(grid.dim)),
    )


def _wavevectors(dim: int, kmax: int) -> list[tuple[int, ...]]:
    ranges = [range(-kmax, kmax + 1)] * dim
    out = []
    for k in np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, dim):
        kt = tuple(int(x) for x in k)
        if all(x == 0 for x in kt):
            continue
        # one representative per +-k pair (cos covers both)
        if kt < tuple(-x for x in kt):
            continue
        out.append(kt)
    return out


def build_basis(grid: Grid, config: RunConfig) -> NoiseBasis:
    """Noise basis from the config's mode entries plus its drift selection.

    Explicit drift modes are realised like noise modes and summed in order.
    """
    base = build_fourier_basis(grid, config.modes)
    if config.drift == "zero":
        return base
    if config.drift == "lu":
        return base.with_drift(ito_drift_correction(base, 1.0))
    if config.drift == "salt":
        return base.salt_basis
    field = VectorField.zeros(grid)
    for mode in build_fourier_basis(grid, config.drift).modes:
        field = field + mode
    return base.with_drift(field)


def tsw_params(config: RunConfig) -> TSWParams:
    return TSWParams(
        kappa=config.tsw_kappa,
        h0=config.tsw_h0,
        theta0=config.tsw_theta0,
        fcor=config.tsw_fcor,
    )


def tsw_initial_state(grid: Grid, config: RunConfig,
                      rng: np.random.Generator | Sequence[np.random.Generator]) -> TSWState:
    """The configured initial state.  A sequence of generators, one per
    member, gives a state batched over the members, each member's fields
    drawn from its own generator; its positivity check names a member."""
    if isinstance(rng, np.random.Generator):
        return TSWState(*_tsw_initial_fields(grid, config, rng))
    members = [_tsw_initial_fields(grid, config, r) for r in rng]
    return TSWState(*(stack_members(fields) for fields in zip(*members)))


def _tsw_initial_fields(grid: Grid, config: RunConfig, rng: np.random.Generator):
    if config.tsw_ic == "rest":
        return (ScalarField.constant(grid, config.tsw_h0),
                ScalarField.constant(grid, config.tsw_theta0),
                VectorField.zeros(grid))
    amp = config.tsw_ic_amplitude
    h = smooth_scalar(grid, rng, offset=config.tsw_h0, amplitude=amp)
    theta = smooth_scalar(grid, rng, offset=config.tsw_theta0, amplitude=amp)
    u = smooth_vector(grid, rng, amplitude=amp)
    return h, theta, u
