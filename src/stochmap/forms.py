"""Closed-form perturbation increments for each tensor class.

Every operator returns the increment decomposed as

    drift * dt  +  sum_i noise_i * eta_i   (Ito bookkeeping, eta_i^2 -> dt)

together with the realised combination for the increment's actual eta draw.
Noise coefficients are evaluated at the input field (explicit in time).

`oracle_remap` is the formula-free cross-check: it remaps the field through
the sampled map itself, using cubic interpolation and finite-difference
Jacobians, and is what the convergence tests compare the closed forms
against.

Sign caution for n-vectors: `pushforward_nvector(g, d)` transports g along
d's *forward* map.  The mixed covariant/variant pair (and the shallow-water
density contrast built on it) transports the variant part along the
*inverse* map so that the n-form/n-vector pairing is preserved; that is
`pushforward_nvector(g, inverse_increment(d))`, which `perturb_mixed_pair`
does for you.

The operators work on raw arrays (these assemblies sit in the inner loop of
ensemble runs), and so are the drift and noise parts they return (a list of
dim arrays per 1-form part); only the realised increment is a field.  Every
stencil goes through the one periodic kernel `calculus.centered_difference`.
The drifts read the sums over modes (A = sum_i e_i e_i^T, sum_i J_i,
sum_i e_i div e_i, sum_i (e_i . grad) e_i) from their one home,
`NoiseBasis.geometry`; only the noise terms, and the 1-form's coupling
term, visit the modes one by one.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from .calculus import centered_difference as _d
from .calculus import derivative, sample_at
from .grid import Array, Grid, ScalarField, TensorClass, VectorField
from .maps import DiffeoIncrement, displacement_field, forward_map, inverse_increment, inverse_map
from .noise import jacobian_wedge, mode_gradient

Fieldish = Union[ScalarField, VectorField]


class NFormMode(Enum):
    """Assembly of the n-form increment: literal coefficients or divergence
    (flux) form.  Flux differencing telescopes, so the domain integral of the
    realised increment vanishes to round-off."""

    POINTWISE = "pointwise"
    FLUX = "flux"


@dataclass(frozen=True)
class PerturbationResult:
    """Drift and noise parts as raw arrays (lists of dim arrays for a 1-form); the realisation as a field."""

    drift: Union[Array, list[Array]]
    noise: tuple[Union[Array, list[Array]], ...]
    realized: Fieldish


# ---------------------------------------------------------------------------
# raw-array helpers

def _grad(v: Array, grid: Grid) -> list[Array]:
    return [_d(v, p, grid) for p in range(grid.dim)]


def _hessian(grads: list[Array], grid: Grid) -> list[list[Array]]:
    dim = grid.dim
    hess: list[list[Array]] = [[None] * dim for _ in range(dim)]  # type: ignore[list-item]
    for p in range(dim):
        for q in range(p, dim):
            hess[p][q] = _d(grads[p], q, grid)
            hess[q][p] = hess[p][q]
    return hess


def _mode_arrays(d: DiffeoIncrement) -> list[list[Array]]:
    return [[c.values for c in e.components] for e in d.basis.modes]


def _drift_arrays(d: DiffeoIncrement) -> list[Array]:
    return [c.values for c in d.basis.drift.components]


def _div(vecs: list[Array], grid: Grid) -> Array:
    return sum(_d(vecs[p], p, grid) for p in range(grid.dim))


def _dot(e: list[Array], grads: list[Array]) -> Array:
    return sum(e[p] * grads[p] for p in range(len(e)))


def _variance_quadratic(amat: list[list[Array]], hess: list[list[Array]]) -> Array:
    """(1/2) A^{pq} d_p d_q f with A the basis's variance tensor (symmetric pairs folded)."""
    acc = 0.0
    for p in range(len(hess)):
        acc = acc + 0.5 * amat[p][p] * hess[p][p]
        for q in range(p + 1, len(hess)):
            acc = acc + amat[p][q] * hess[p][q]
    return acc


def volume_jacobian_coefficient(e: VectorField) -> ScalarField:
    """Quadratic wedge term of the volume multiplier for one mode field."""
    return ScalarField(e.grid, jacobian_wedge(*mode_gradient([c.values for c in e.components], e.grid)))


def _realize(drift: Array, noise: list[Array], d: DiffeoIncrement) -> Array:
    realized = drift * d.dt
    for nv, eta in zip(noise, d.increments.eta):
        realized = realized + nv * float(eta)
    return realized


def _assemble(grid: Grid, drift: Array, noise: list[Array], d: DiffeoIncrement) -> PerturbationResult:
    return PerturbationResult(drift, tuple(noise), ScalarField(grid, _realize(drift, noise, d)))


def _assemble_vector(grid: Grid, drift: list[Array], noise: list[list[Array]], d: DiffeoIncrement) -> PerturbationResult:
    realized = [_realize(drift[j], [nvs[j] for nvs in noise], d) for j in range(grid.dim)]
    return PerturbationResult(drift, tuple(noise), VectorField.from_arrays(grid, realized))


# ---------------------------------------------------------------------------
# the five tensor classes

def perturb_0form(f: ScalarField, d: DiffeoIncrement) -> PerturbationResult:
    """Scalar transported as a plain function: advection plus mode diffusion.

    drift   = a.grad f + (1/2) sum_i e_i^p e_i^q d_p d_q f
    noise_i = e_i.grad f
    """
    grid = f.grid
    grads = _grad(f.values, grid)
    drift = _variance_quadratic(d.basis.geometry.amat, _hessian(grads, grid))
    if d.basis.has_drift:
        drift = drift + _dot(_drift_arrays(d), grads)
    noise = [_dot(e, grads) for e in _mode_arrays(d)]
    return _assemble(grid, drift, noise, d)


def perturb_volume_multiplier(d: DiffeoIncrement) -> PerturbationResult:
    """Multiplier increment picked up by the volume element under the map.

    drift = div a + (1/2) sum_i J_i,  noise_i = div e_i.  The realised field
    is multiplier - 1; it vanishes identically when the basis satisfies the
    incompressibility pair div e_i = 0 and d_p d_q (sum_i e_i^p e_i^q) = 0.
    """
    grid = d.grid
    drift = _div(_drift_arrays(d), grid) + 0.5 * d.basis.geometry.wedge
    noise = [_div(e, grid) for e in _mode_arrays(d)]
    return _assemble(grid, drift, noise, d)


def perturb_nform(f: ScalarField, d: DiffeoIncrement, mode: NFormMode = NFormMode.FLUX) -> PerturbationResult:
    """Density-like scalar (coefficient of the full volume form).

    Pointwise assembly is the literal coefficient formula

      drift   = (div a + (1/2) J) f + (a^p + e^p div e) d_p f
                + (1/2) e e : grad grad f
      noise_i = div e_i f + e_i.grad f

    while flux assembly writes the same increment as a discrete divergence,
    so that integrate(realized) telescopes to zero for every realisation.
    """
    grid = f.grid
    fv = f.values
    geo = d.basis.geometry
    modes = _mode_arrays(d)
    a = _drift_arrays(d)
    grads = _grad(fv, grid)
    if mode is NFormMode.POINTWISE:
        drift = (_div(a, grid) + 0.5 * geo.wedge) * fv + _variance_quadratic(geo.amat, _hessian(grads, grid))
        for p in range(grid.dim):
            drift = drift + (a[p] + geo.e_div_e[p]) * grads[p]
        noise = [_div(e, grid) * fv + _dot(e, grads) for e in modes]
        return _assemble(grid, drift, noise, d)

    # flux form: drift = d_p [ (a^p + (1/2)(e^p div e - (e.grad) e^p)) f + (1/2) A^{pq} d_q f ]
    drift = 0.0
    for p in range(grid.dim):
        bracket = (a[p] + 0.5 * (geo.e_div_e[p] - geo.self_adv[p])) * fv + 0.5 * _dot(geo.amat[p], grads)
        drift = drift + _d(bracket, p, grid)
    noise = [sum(_d(e[p] * fv, p, grid) for p in range(grid.dim)) for e in modes]
    return _assemble(grid, drift, noise, d)


def perturb_1form(v: VectorField, d: DiffeoIncrement) -> PerturbationResult:
    """Covector components f_j dx^j (momentum-like velocity representation).

    drift^j   = a.grad v^j + (1/2) e e : grad grad v^j
                + (d_j a^p) v^p + sum_i (d_j e_i^p) (e_i . grad v^p)
    noise_i^j = e_i.grad v^j + (d_j e_i^p) v^p
    """
    grid = v.grid
    if grid.dim < 2:
        raise ValueError("1-form transport needs dim >= 2")
    amat = d.basis.geometry.amat    # first, so it is not built while the arrays below are live
    a = _drift_arrays(d)
    vv = [c.values for c in v.components]
    grads = [_grad(c, grid) for c in vv]      # grads[p][q] = d_q v^p
    drift = []
    for j in range(grid.dim):
        dj = _variance_quadratic(amat, _hessian(grads[j], grid))
        for p in range(grid.dim):
            dj = dj + a[p] * grads[j][p] + _d(a[p], j, grid) * vv[p]
        drift.append(dj)
    noise = []
    for e in _mode_arrays(d):
        de = mode_gradient(e, grid)[0]                        # de[j][p] = d_j e^p
        egrad = [_dot(e, grads[p]) for p in range(grid.dim)]  # e . grad v^p
        for j in range(grid.dim):
            drift[j] = drift[j] + _dot(de[j], egrad)
        noise.append([egrad[j] + _dot(de[j], vv) for j in range(grid.dim)])
    return _assemble_vector(grid, drift, noise, d)


def pushforward_nvector(g: ScalarField, d: DiffeoIncrement) -> PerturbationResult:
    """Density-dual scalar (coefficient of the full multivector), transported
    along d's forward map.

    drift   = (div a + (1/2) J) g
              + (-(a^p + e^p div e) + (e.grad) e^p) d_p g + (1/2) e e : grad grad g
    noise_i = div e_i g - e_i.grad g

    The divergence and advection velocities differ, and the noise sign is
    opposite to the 0-form case.
    """
    grid = g.grid
    gv = g.values
    geo = d.basis.geometry
    a = _drift_arrays(d)
    grads = _grad(gv, grid)
    drift = (_div(a, grid) + 0.5 * geo.wedge) * gv + _variance_quadratic(geo.amat, _hessian(grads, grid))
    for p in range(grid.dim):
        drift = drift + (geo.self_adv[p] - geo.e_div_e[p] - a[p]) * grads[p]
    noise = [_div(e, grid) * gv - _dot(e, grads) for e in _mode_arrays(d)]
    return _assemble(grid, drift, noise, d)


def perturb_mixed_pair(
    f_nform: ScalarField,
    g_nvector: ScalarField,
    d: DiffeoIncrement,
    mode: NFormMode = NFormMode.FLUX,
) -> tuple[PerturbationResult, PerturbationResult]:
    """Covariant/variant pair sharing one increment: the n-form is pulled back
    through the map, the n-vector is pushed forward through its inverse, so
    the pointwise pairing f*g is preserved to the scheme's order."""
    if f_nform.grid != g_nvector.grid:
        raise ValueError("mixed pair must live on one grid")
    if f_nform.grid != d.grid:
        raise ValueError("mixed pair and increment must share the grid")
    return (
        perturb_nform(f_nform, d, mode),
        pushforward_nvector(g_nvector, inverse_increment(d)),
    )


# ---------------------------------------------------------------------------
# direct remapping oracle

def map_jacobian(d: DiffeoIncrement) -> list[list[ScalarField]]:
    """Finite-difference Jacobian J[j][p] = d_j T^p of the forward map at the nodes."""
    grid = d.grid
    disp = displacement_field(d)
    jac: list[list[ScalarField]] = []
    for j in range(grid.dim):
        row = []
        for p in range(grid.dim):
            entry = derivative(disp.components[p], j)
            if j == p:
                entry = entry + 1.0
            row.append(entry)
        jac.append(row)
    return jac


def jacobian_determinant(d: DiffeoIncrement) -> ScalarField:
    grid = d.grid
    j = map_jacobian(d)
    if grid.dim == 1:
        det = j[0][0].values
    elif grid.dim == 2:
        det = j[0][0].values * j[1][1].values - j[0][1].values * j[1][0].values
    else:
        det = (
            j[0][0].values * (j[1][1].values * j[2][2].values - j[1][2].values * j[2][1].values)
            - j[0][1].values * (j[1][0].values * j[2][2].values - j[1][2].values * j[2][0].values)
            + j[0][2].values * (j[1][0].values * j[2][1].values - j[1][1].values * j[2][0].values)
        )
    return ScalarField(grid, det)


def oracle_remap(theta_class: TensorClass, fields, d: DiffeoIncrement):
    """Remap fields through the sampled map itself (no closed-form algebra).

    0-form:      f o T
    n-form:      (f o T) det J_T                (Jacobian at the source point)
    volume form: det J_T
    1-form:      (f^p o T) d_j T^p
    n-vector:    (g o T^{-1}) (det J_T o T^{-1})
    mixed pair:  (n-form remap of f, n-vector remap of g)
    """
    grid = d.grid
    pts = grid.points()
    if theta_class is TensorClass.ZERO_FORM:
        fwd = forward_map(d, pts)
        return fields.with_values(sample_at(fields, fwd).reshape(grid.shape))
    if theta_class is TensorClass.VOLUME_FORM:
        return jacobian_determinant(d)
    if theta_class is TensorClass.N_FORM:
        fwd = forward_map(d, pts)
        det = jacobian_determinant(d)
        return fields.with_values(sample_at(fields, fwd).reshape(grid.shape) * det.values)
    if theta_class is TensorClass.ONE_FORM:
        fwd = forward_map(d, pts)
        jac = map_jacobian(d)
        sampled = [sample_at(c, fwd).reshape(grid.shape) for c in fields.components]
        comps = []
        for j in range(grid.dim):
            acc = np.zeros(grid.shape)
            for p in range(grid.dim):
                acc += sampled[p] * jac[j][p].values
            comps.append(acc)
        return VectorField.from_arrays(grid, comps)
    if theta_class is TensorClass.N_VECTOR:
        inv = inverse_map(d, pts)
        det = jacobian_determinant(d)
        gvals = sample_at(fields, inv).reshape(grid.shape)
        dvals = sample_at(det, inv).reshape(grid.shape)
        return fields.with_values(gvals * dvals)
    if theta_class is TensorClass.MIXED_PAIR:
        f, g = fields
        return (
            oracle_remap(TensorClass.N_FORM, f, d),
            oracle_remap(TensorClass.N_VECTOR, g, d),
        )
    raise ValueError(f"unsupported tensor class {theta_class}")
