"""Closed-form perturbation increments for each tensor class.

Every operator returns the increment decomposed as

    realized = drift * dt  +  noise   (Ito bookkeeping, eta_i^2 -> dt)

where noise is the realised noise term of the increment's eta draw, read
from the one noise displacement xi = sum_i eta_i e_i (it is linear in xi)
rather than mode by mode; only the 1-form, whose drift visits every mode,
sums its noise per mode.  It is evaluated at the input field (explicit in time).

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
ensemble runs), and so are the drift and noise parts they return and the raw
realised increment drift*dt + noise, computed once (a list of dim arrays per
1-form part).  The realised increment as a field, `realized`, is built on
first read: a forecast step adds the raw increment to its state variable and
wraps the sum once.  Every stencil goes through the one periodic kernel
`calculus.centered_difference`.  The scalar classes and the flux n-form
also take a batch of members, a field with a leading member axis under an
increment batched the same way (see `grid` and `maps`), and give each member
the bits of its own call; the 1-form, the volume multiplier and
`oracle_remap` take one member.

The scalar classes share one increment form, assembled by `_scalar`:

    drift = c0 f + c1.grad f + (1/2) A:grad grad f
    noise = s0 (div xi) f + s1 xi.grad f

and differ only in their row of coefficients (b_e = sum_i e_i div e_i,
s_e = sum_i (e_i . grad) e_i, g_e = sum_i (e_i . grad)(div e_i)):

    0-form            c0 = -                     c1 = a                (0, +1)
    pointwise n-form  c0 = div a + (1/2) sum J   c1 = a + b_e          (1, +1)
    n-vector          c0 = div a + (1/2) sum J - g_e
                                                 c1 = s_e - b_e - a    (1, -1)

The volume multiplier is the row with f = 1 (drift div a + (1/2) sum J,
noise div xi); the flux n-form keeps its divergence form, reading the bracket
velocity b = a + (1/2)(b_e - s_e), so that mass stays exact.  The rows are
step-invariant, and those a forecast step reads are tables on `NoiseBasis`
(`volume_drift`, `nvector_rows`, `flux_velocity`), built on first read from
the sums over modes in `NoiseBasis.geometry`; the pointwise n-form adds its
c1 per call.  Only the 1-form's coupling term, and its noise with it, visits
the modes one by one.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Union

import numpy as np

from .calculus import centered_difference as _d
from .calculus import derivative, sample_at
from .grid import Array, Grid, ScalarField, TensorClass, VectorField
from .maps import (DiffeoIncrement, displacement_field, forward_map, inverse_increment, inverse_map,
                   require_single_member)

Fieldish = Union[ScalarField, VectorField]


class NFormMode(Enum):
    """Assembly of the n-form increment: literal coefficients or divergence
    (flux) form.  Flux differencing telescopes, so the domain integral of the
    realised increment vanishes to round-off."""

    POINTWISE = "pointwise"
    FLUX = "flux"


@dataclass(frozen=True)
class PerturbationResult:
    """Drift, realised noise (linear in xi) and the realisation
    ``increment = drift*dt + noise`` as raw arrays, lists of dim arrays for a
    1-form.  `realized`, the realisation as a field, is built on first read."""

    drift: Union[Array, list[Array]]
    noise: Union[Array, list[Array]]
    increment: Union[Array, list[Array]]
    grid: Grid

    @cached_property
    def realized(self) -> Fieldish:
        if isinstance(self.increment, list):
            return VectorField.from_arrays(self.grid, self.increment)
        return ScalarField(self.grid, self.increment)


# ---------------------------------------------------------------------------
# raw-array helpers

def _grad(v: Array, grid: Grid) -> list[Array]:
    return [_d(v, p, grid) for p in range(grid.dim)]


def _div(vecs: list[Array], grid: Grid) -> Array:
    return sum(_d(vecs[p], p, grid) for p in range(grid.dim))


def _dot(e: list[Array], grads: list[Array], start=0) -> Array:
    return sum((e[p] * grads[p] for p in range(len(e))), start)


def _variance_quadratic(amat: list[list[Array]], grads: list[Array], grid: Grid) -> Array:
    """(1/2) A^{pq} d_p d_q f with A the basis's variance tensor (symmetric
    pairs folded), summed from 0 over the upper triangle row by row, from
    the gradient ``grads`` of f.  Each Hessian entry d_q (d_p f) is formed
    when its term is added, and the product is formed in it."""
    acc = None
    for p in range(grid.dim):
        for q in range(p, grid.dim):
            term = _d(grads[p], q, grid)
            term *= 0.5 * amat[p][p] if q == p else amat[p][q]
            acc = _sum_into(acc, term)
            del term     # before the next entry allocates
    return acc


def _dot_into(acc: Array | None, e: list[Array], grads: list[Array]) -> Array:
    """``_dot(e, grads, acc)`` summed into ``acc``, an array the caller owns,
    or from 0 into a new array when ``acc`` is None."""
    term = None
    for p in range(len(e)):
        term = np.multiply(e[p], grads[p], out=term)
        if acc is None:
            acc, term = np.add(term, 0.0, out=term), None
        else:
            acc += term
    return acc


def _sum_into(acc: Array | None, term: Array) -> Array:
    """``acc + term``, formed in ``acc``; from 0, in ``term``, when ``acc`` is
    None.  Both are arrays the caller owns."""
    if acc is None:
        return np.add(term, 0.0, out=term)
    acc += term
    return acc


def _assemble(grid: Grid, drift, noise, d: DiffeoIncrement) -> PerturbationResult:
    if isinstance(drift, list):
        return PerturbationResult(drift, noise, [dj * d.dt + nj for dj, nj in zip(drift, noise)], grid)
    increment = drift * d.dt
    increment += noise
    return PerturbationResult(drift, noise, increment, grid)


def _scalar(f: ScalarField, d: DiffeoIncrement, c0, c1, s0: int, s1: int) -> PerturbationResult:
    """The one assembly of a scalar class from its row of coefficients:

      drift = c0 f + c1.grad f + (1/2) A:grad grad f
      noise = s0 (div xi) f + s1 xi.grad f,   s0 in {0, 1}, s1 = +-1

    The terms are summed left to right from c0 f; c0 None (the 0-form) adds
    c1.grad f as one dot product after the quadratic term, and c1 None
    leaves it out.  The sums are formed in place, in arrays this call made
    (the gradient's end up holding xi^p d_p f), with the operations and
    order of the plain expressions, sums from 0 included, so the bits are
    theirs: a fresh array per term makes the heap trim and regrow, which
    costs page faults on every step of a batch.

    An inverse increment's noise displacement is -xi of its forward
    increment (`DiffeoIncrement.signed_noise`): the noise is then formed
    from xi with s0 and s1 negated, which gives the bits of -xi up to the
    sign of a zero.
    """
    grid, fv = f.grid, f.values
    xi, sign = d.signed_noise
    s0, s1 = sign * s0, sign * s1
    grads = _grad(fv, grid)
    drift = _variance_quadratic(d.basis.geometry.amat, grads, grid)
    if c0 is not None:
        start = c0 * fv
        drift = np.add(start, drift, out=start)     # frees the quadratic's array
        drift = _dot_into(drift, c1, grads)
    elif c1 is not None:
        drift += _dot_into(None, c1, grads)
    for p in range(grid.dim):
        grads[p] *= xi[p]
    noise = np.add(grads[0], 0.0, out=grads[0])     # xi.grad f, from 0
    for p in range(1, grid.dim):
        noise += grads[p]
    if s0:
        div_xi = _d(xi[0], 0, grid)
        div_xi += 0.0
        for p in range(1, grid.dim):
            div_xi += _d(xi[p], p, grid)
        div_xi *= fv
        if s0 < 0:
            np.negative(div_xi, out=div_xi)
        noise = np.add(div_xi, noise, out=div_xi) if s1 > 0 else np.subtract(div_xi, noise, out=div_xi)
    elif s1 < 0:
        np.negative(noise, out=noise)
    return _assemble(grid, drift, noise, d)


# ---------------------------------------------------------------------------
# the five tensor classes

def perturb_0form(f: ScalarField, d: DiffeoIncrement) -> PerturbationResult:
    """Scalar transported as a plain function: advection plus mode diffusion.

    drift = a.grad f + (1/2) sum_i e_i^p e_i^q d_p d_q f
    noise = xi.grad f
    """
    a = [c.values for c in d.basis.drift.components] if d.basis.has_drift else None
    return _scalar(f, d, None, a, 0, 1)


def perturb_volume_multiplier(d: DiffeoIncrement) -> PerturbationResult:
    """Multiplier increment picked up by the volume element under the map.

    The scalar row with f = 1: drift = div a + (1/2) sum_i J_i (the basis's
    `volume_drift`), noise = div xi.  The realised field is multiplier - 1;
    it vanishes identically when the basis satisfies the incompressibility
    pair div e_i = 0 and d_p d_q (sum_i e_i^p e_i^q) = 0.
    """
    require_single_member(d, "perturb_volume_multiplier")
    return _assemble(d.grid, d.basis.volume_drift.copy(), _div(d.noise_displacement, d.grid), d)


def perturb_nform(f: ScalarField, d: DiffeoIncrement, mode: NFormMode = NFormMode.FLUX) -> PerturbationResult:
    """Density-like scalar (coefficient of the full volume form).

    Pointwise assembly is the literal coefficient formula

      drift = (div a + (1/2) J) f + (a^p + e^p div e) d_p f
              + (1/2) e e : grad grad f
      noise = (div xi) f + xi.grad f

    while flux assembly writes the same increment as a discrete divergence,

      drift = d_p [ b^p f + (1/2) A^{pq} d_q f ],  b = a + (1/2)(e div e - (e.grad) e)
      noise = d_p (xi^p f)

    so that integrate(realized) telescopes to zero for every realisation.
    Both sums are formed in place, in arrays this call made, with the order
    of the plain expressions and sums from 0.
    """
    basis = d.basis
    if mode is NFormMode.POINTWISE:
        c1 = [c.values + ede for c, ede in zip(basis.drift.components, basis.geometry.e_div_e)]
        return _scalar(f, d, basis.volume_drift, c1, 1, 1)
    grid, fv, xi = f.grid, f.values, d.noise_displacement
    amat, b = basis.geometry.amat, basis.flux_velocity
    grads = _grad(fv, grid)
    drift = noise = None
    for p in range(grid.dim):
        flux = _dot_into(None, amat[p], grads)
        flux *= 0.5
        flux += np.multiply(b[p], fv)         # b^p f + (1/2) A^{pq} d_q f
        drift = _sum_into(drift, _d(flux, p, grid))
        del flux     # before the next axis allocates
    del grads
    for p in range(grid.dim):
        noise = _sum_into(noise, _d(np.multiply(xi[p], fv), p, grid))
    return _assemble(grid, drift, noise, d)


def perturb_1form(v: VectorField, d: DiffeoIncrement) -> PerturbationResult:
    """Covector components f_j dx^j (momentum-like velocity representation).

    drift^j = a.grad v^j + (1/2) e e : grad grad v^j
              + (d_j a^p) v^p + sum_i (d_j e_i^p) (e_i . grad v^p)
    noise^j = sum_i eta_i (e_i.grad v^j + (d_j e_i^p) v^p)
    """
    grid = v.grid
    if grid.dim < 2:
        raise ValueError("1-form transport needs dim >= 2")
    require_single_member(d, "perturb_1form")
    v.components[0].require_single_member("perturb_1form")
    amat = d.basis.geometry.amat    # first, so it is not built while the arrays below are live
    a = [c.values for c in d.basis.drift.components]
    vv = [c.values for c in v.components]
    grads = [_grad(c, grid) for c in vv]      # grads[p][q] = d_q v^p
    drift = []
    for j in range(grid.dim):
        dj = _variance_quadratic(amat, grads[j], grid)
        for p in range(grid.dim):
            dj = dj + a[p] * grads[j][p] + _d(a[p], j, grid) * vv[p]
        drift.append(dj)
    noise = [np.zeros(grid.shape) for _ in range(grid.dim)]
    for mode, eta in zip(d.basis.modes, d.increments.eta):
        e = [c.values for c in mode.components]
        egrad = [_dot(e, grads[p]) for p in range(grid.dim)]  # e . grad v^p
        for j in range(grid.dim):
            de_j = [_d(c, j, grid) for c in e]                # d_j e^p, one row at a time
            drift[j] = drift[j] + _dot(de_j, egrad)
            noise[j] += (egrad[j] + _dot(de_j, vv)) * float(eta)
    return _assemble(grid, drift, noise, d)


def pushforward_nvector(g: ScalarField, d: DiffeoIncrement) -> PerturbationResult:
    """Density-dual scalar (coefficient of the full multivector), transported
    along d's forward map.

    drift   = (div a + (1/2) J - (e.grad)(div e)) g
              + (-(a^p + e^p div e) + (e.grad) e^p) d_p g + (1/2) e e : grad grad g
    noise = (div xi) g - xi.grad g

    This is the Ito expansion of the oracle's (g o T^-1)(det J_T o T^-1); its
    (e.grad)(div e) term vanishes for divergence-free modes.  The divergence and
    advection velocities differ, and the noise sign is opposite to the 0-form case.
    """
    return _scalar(g, d, *d.basis.nvector_rows, 1, -1)


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
    require_single_member(d, "oracle_remap")
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
