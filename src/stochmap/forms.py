"""Closed-form perturbation increments for each tensor class.

Every operator returns its increment as raw arrays (`PerturbationResult`),

    increment = drift * dt + noise   (Ito bookkeeping, eta_i^2 -> dt),

evaluated at the input field (explicit in time), with the noise read from
the one noise displacement xi = sum_i eta_i e_i.  The scalar classes share
one assembly, `_scalar`, and differ only in their row of coefficients
(b_e = sum_i e_i div e_i, s_e = sum_i (e_i . grad) e_i,
g_e = sum_i (e_i . grad)(div e_i)):

    0-form            c0 = -                     c1 = a                (0, +1)
    pointwise n-form  c0 = div a + (1/2) sum J   c1 = a + b_e          (1, +1)
    n-vector          c0 = div a + (1/2) sum J - g_e
                                                 c1 = s_e - b_e - a    (1, -1)

The flux n-form keeps its divergence form, so mass stays exact.  Every class
and `oracle_remap` takes a batch of members (see `grid`).  `oracle_remap` is
the formula-free cross-check: it remaps a field through the sampled map
itself.
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
from .maps import DiffeoIncrement, displacement_field, forward_map, inverse_increment, inverse_map
from .noise import NoiseBasis

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
    acc = _d(vecs[0], 0, grid)
    for p in range(1, grid.dim):
        acc += _d(vecs[p], p, grid)
    return acc


def _variance_quadratic(amat: list[list[Array]], grads: list[Array], grid: Grid) -> Array:
    """(1/2) A^{pq} d_p d_q f with A the basis's variance tensor (symmetric
    pairs folded), summed over the upper triangle row by row, from the
    gradient ``grads`` of f.  Each Hessian entry d_q (d_p f) is formed
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
    """``acc + sum_p e[p] grads[p]`` summed into ``acc``, an array the caller
    owns, or into the first product when ``acc`` is None."""
    term = None
    for p in range(len(e)):
        if acc is None:
            acc = np.multiply(e[p], grads[p])
        else:
            term = np.multiply(e[p], grads[p], out=term)
            acc += term
    return acc


def _sum_into(acc: Array | None, term: Array) -> Array:
    """``acc + term``, formed in ``acc``; ``term`` itself when ``acc`` is
    None.  Both are arrays the caller owns."""
    if acc is None:
        return term
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
      noise = s0 (div xi) f + s1 xi.grad f,   (s0, s1) = (0, 1) or (1, +-1)

    c0 None (the 0-form) adds c1.grad f after the quadratic term, and c1 None
    leaves it out.  The sums are formed in place, in arrays this call made: a
    fresh array per term makes the heap trim and regrow, which costs page
    faults on every step of a batch.
    """
    grid, fv, xi = f.grid, f.values, d.noise_displacement
    grads = _grad(fv, grid)
    drift = _variance_quadratic(d.basis.geometry.amat, grads, grid)
    if c0 is not None:
        start = c0 * fv
        drift = np.add(start, drift, out=start)     # frees the quadratic's array
        drift = _dot_into(drift, c1, grads)
    elif c1 is not None:
        drift += _dot_into(None, c1, grads)
    noise = None
    for p in range(grid.dim):
        grads[p] *= xi[p]
        noise = _sum_into(noise, grads[p])     # xi.grad f
    if s0:
        div_xi = _div(xi, grid)
        div_xi *= fv
        noise = np.add(div_xi, noise, out=div_xi) if s1 > 0 else np.subtract(div_xi, noise, out=div_xi)
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
    `volume_drift`, broadcast over the members), noise = div xi.  The
    realised field is multiplier - 1; it vanishes identically when the basis
    satisfies the incompressibility pair div e_i = 0 and
    d_p d_q (sum_i e_i^p e_i^q) = 0.
    """
    noise = _div(d.noise_displacement, d.grid)
    return _assemble(d.grid, np.broadcast_to(d.basis.volume_drift, noise.shape).copy(), noise, d)


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


class OneFormParts:
    """The parts of the 1-form increment of ``v`` under ``basis`` that no draw
    changes, built together on first read: the dim drift arrays and, per mode
    i, the dim noise rows e_i.grad v^j + (d_j e_i^p) v^p that `perturb_1form`
    weights by eta_i.  A ``v`` batched over members gives parts batched over
    them.  They are read-only, so a caller writing into them fails instead of
    changing the next member's increment.
    """

    def __init__(self, v: VectorField, basis: NoiseBasis):
        if v.grid.dim < 2:
            raise ValueError("1-form transport needs dim >= 2")
        self.v, self.basis = v, basis

    @cached_property
    def _parts(self) -> tuple[list[Array], list[list[Array]]]:
        grid = self.v.grid
        amat = self.basis.geometry.amat    # first, so it is not built while the arrays below are live
        a = [c.values for c in self.basis.drift.components]
        vv = [c.values for c in self.v.components]
        grads = [_grad(c, grid) for c in vv]      # grads[p][q] = d_q v^p
        drift = []
        for j in range(grid.dim):
            dj = _variance_quadratic(amat, grads[j], grid)
            for p in range(grid.dim):
                dj = dj + a[p] * grads[j][p] + _d(a[p], j, grid) * vv[p]
            drift.append(dj)
        modes = [[c.values for c in mode.components] for mode in self.basis.modes]
        egrads = [[_dot_into(None, e, grads[p]) for p in range(grid.dim)] for e in modes]  # e . grad v^p
        del grads     # before the rows allocate
        rows = []
        for e, egrad in zip(modes, egrads):
            rows.append([])
            for j in range(grid.dim):
                de_j = [_d(c, j, grid) for c in e]                # d_j e^p, one row at a time
                drift[j] += _dot_into(None, de_j, egrad)
                rows[-1].append(egrad[j] + _dot_into(None, de_j, vv))
        for part in drift + [r for row in rows for r in row]:
            part.setflags(write=False)
        return drift, rows

    @property
    def drift(self) -> list[Array]:
        return self._parts[0]

    @property
    def noise_rows(self) -> list[list[Array]]:
        return self._parts[1]


def perturb_1form(v: VectorField | OneFormParts, d: DiffeoIncrement) -> PerturbationResult:
    """Covector components f_j dx^j (momentum-like velocity representation).

    drift^j = a.grad v^j + (1/2) e e : grad grad v^j
              + (d_j a^p) v^p + sum_i (d_j e_i^p) (e_i . grad v^p)
    noise^j = sum_i eta_i (e_i.grad v^j + (d_j e_i^p) v^p)

    ``v`` is the field, or its `OneFormParts` under ``d``'s basis to share the
    drift and the per-mode noise rows with other draws: this call then only
    sums the rows, weighted by each member's eta, in mode order from zero.
    """
    parts = v if isinstance(v, OneFormParts) else OneFormParts(v, d.basis)
    if parts.basis is not d.basis:
        raise ValueError("perturb_1form: the 1-form parts were built for another basis than the increment's")
    grid = parts.v.grid
    eta = d.increments.eta.reshape(d.batch_shape + (1,) * grid.dim + (d.increments.n_modes,))
    shape = np.broadcast_shapes(parts.drift[0].shape, eta.shape[:-1])
    noise = [np.zeros(shape) for _ in range(grid.dim)]
    for i, row in enumerate(parts.noise_rows):
        for j in range(grid.dim):
            noise[j] += row[j] * eta[..., i]
    return _assemble(grid, list(parts.drift), noise, d)


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
) -> tuple[PerturbationResult, PerturbationResult]:
    """Covariant/variant pair sharing one increment: the n-form is pulled back
    through the map (flux assembly), the n-vector pushed forward through its
    inverse, so the pointwise pairing f*g is preserved to the scheme's order."""
    if f_nform.grid != g_nvector.grid:
        raise ValueError("mixed pair must live on one grid")
    if f_nform.grid != d.grid:
        raise ValueError("mixed pair and increment must share the grid")
    return (
        perturb_nform(f_nform, d),
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


class NodeMaps:
    """The sampled map of one increment at the grid nodes, each part computed
    on first read: `forward` (`forward_map`), `inverse` (`inverse_map`) and
    `determinant` (`jacobian_determinant`).  Oracle calls given one NodeMaps
    share its parts; no closed form reads them."""

    def __init__(self, d: DiffeoIncrement):
        self.d = d

    @cached_property
    def forward(self) -> Array:
        return forward_map(self.d)

    @cached_property
    def inverse(self) -> Array:
        return inverse_map(self.d)

    @cached_property
    def determinant(self) -> ScalarField:
        return jacobian_determinant(self.d)


def oracle_remap(theta_class: TensorClass, fields, d: DiffeoIncrement | NodeMaps):
    """Remap fields through the sampled map itself (no closed-form algebra).

    0-form:      f o T
    n-form:      (f o T) det J_T                (Jacobian at the source point)
    volume form: det J_T
    1-form:      (f^p o T) d_j T^p
    n-vector:    (g o T^{-1}) (det J_T o T^{-1})

    ``d`` is the increment, or its `NodeMaps` to share the maps with other
    calls.  An increment batched over members remaps the field through each
    member's map, with one `sample_at` call for all members.
    """
    maps = d if isinstance(d, NodeMaps) else NodeMaps(d)
    d, grid = maps.d, maps.d.grid
    shape = d.batch_shape + grid.shape
    if theta_class is TensorClass.ZERO_FORM:
        return fields.with_values(sample_at(fields, maps.forward).reshape(shape))
    if theta_class is TensorClass.VOLUME_FORM:
        return maps.determinant
    if theta_class is TensorClass.N_FORM:
        return fields.with_values(sample_at(fields, maps.forward).reshape(shape) * maps.determinant.values)
    if theta_class is TensorClass.ONE_FORM:
        jac = map_jacobian(d)
        sampled = sample_at(fields, maps.forward)
        sampled = [sampled[..., p].reshape(shape) for p in range(grid.dim)]
        comps = []
        for j in range(grid.dim):
            acc = np.zeros(shape)
            for p in range(grid.dim):
                acc += sampled[p] * jac[j][p].values
            comps.append(acc)
        return VectorField.from_arrays(grid, comps)
    if theta_class is TensorClass.N_VECTOR:
        gvals = sample_at(fields, maps.inverse).reshape(shape)
        dvals = sample_at(maps.determinant, maps.inverse).reshape(shape)
        return fields.with_values(gvals * dvals)
    raise ValueError(f"unsupported tensor class {theta_class}")
