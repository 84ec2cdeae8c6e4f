"""Full SPDE assembly: deterministic right-hand side plus map perturbation.

A forecast step is an explicit Euler update, then the tensor-class
perturbation of the updated fields by one map increment shared by every
state variable.  With an empty noise basis the second phase is skipped, so
trajectories are bit-identical to the plain deterministic Euler solver.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Union

import numpy as np

from .calculus import centered_difference as _d
from .calculus import derivative, second_derivative
from .forms import (
    NFormMode,
    perturb_0form,
    perturb_1form,
    perturb_nform,
    pushforward_nvector,
)
from .grid import Array, Grid, ScalarField, TensorClass, VectorField, member_error, named_field
from .maps import DiffeoIncrement, inverse_increment, make_increment
from .noise import BrownianIncrements, NoiseBasis, ito_drift_correction, sample_increments

Fieldish = Union[ScalarField, VectorField]
State = dict[str, Fieldish]


class StabilityError(RuntimeError):
    """Explicit step size violates the advective/diffusive stability bound."""


class PositivityError(RuntimeError):
    """A sign-definite state variable lost positivity; aborting, not clipping."""


# ---------------------------------------------------------------------------
# generic two-step forecast

def check_stability(grid: Grid, dt: float, velocity_scale: float, diffusivity: float,
                    c_stab: float = 1.0, member: int | None = None) -> None:
    """Raise StabilityError if dt exceeds c_stab times the advective and
    diffusive limits; ``member``, if given, is the batch member checked."""
    h = grid.min_spacing
    limit = np.inf
    if diffusivity > 0:
        limit = min(limit, h * h / (2.0 * grid.dim * diffusivity))
    if velocity_scale > 0:
        limit = min(limit, h / velocity_scale)
    if dt > c_stab * limit:
        raise member_error(
            StabilityError,
            f"dt = {dt:.3e} exceeds stability bound {c_stab * limit:.3e} "
            f"(velocity scale {velocity_scale:.3g}, diffusivity {diffusivity:.3g})",
            member,
        )


def apply_increment(field: Fieldish, tensor_class: TensorClass, d: DiffeoIncrement,
                    nform_mode: NFormMode = NFormMode.FLUX) -> Fieldish:
    """One state variable plus its realised class-appropriate perturbation,
    ``field + increment`` on raw arrays, wrapped once.

    N_VECTOR rides the inverse increment (the pairing-preserving transport
    used for mixed covariant/variant state); the forward-map transport is
    available directly through forms.pushforward_nvector.  The field and the
    increment carry the same member axis, or neither carries one.
    """
    parts = field.components if isinstance(field, VectorField) else (field,)
    if any(part.batch_shape != d.batch_shape for part in parts):
        raise ValueError(f"field batched over {parts[0].batch_shape} but increment over {d.batch_shape}")
    if tensor_class is TensorClass.ZERO_FORM and isinstance(field, VectorField):
        increment = [perturb_0form(c, d).increment for c in field.components]
    elif tensor_class is TensorClass.ZERO_FORM:
        increment = perturb_0form(field, d).increment
    elif tensor_class is TensorClass.N_FORM:
        increment = perturb_nform(field, d, nform_mode).increment
    elif tensor_class is TensorClass.ONE_FORM:
        increment = perturb_1form(field, d).increment
    elif tensor_class is TensorClass.N_VECTOR:
        increment = pushforward_nvector(field, inverse_increment(d)).increment
    else:
        raise ValueError(f"no perturbation rule for tensor class {tensor_class}")
    # the increment's arrays are this call's own: the sum is formed in them
    if isinstance(field, VectorField):
        return VectorField.from_arrays(field.grid, [_add_into(i, c.values) for c, i in zip(field.components, increment)])
    return field.with_values(_add_into(increment, field.values))


def _add_into(owned: Array, other: Array) -> Array:
    """``other + owned``, formed in ``owned``, an array of the caller's own."""
    owned += other
    return owned


def _euler(field: Fieldish, update: Fieldish, dt: float) -> Fieldish:
    """``field + update * dt`` on raw arrays, wrapped once."""
    if isinstance(field, VectorField):
        return VectorField.from_arrays(
            field.grid, [_add_into(u.values * dt, c.values) for c, u in zip(field.components, update.components)])
    return field.with_values(_add_into(update.values * dt, field.values))


def two_step_forecast(
    state: State,
    rhs: Callable[[State], State] | None,
    assignment: Mapping[str, TensorClass],
    basis: NoiseBasis,
    dt: float,
    rng: np.random.Generator,
    *,
    nform_mode: NFormMode = NFormMode.FLUX,
    safety: float = 1.0,
    increment: DiffeoIncrement | None = None,
) -> State:
    """One forecast step: deterministic Euler update, then perturbation.

    Noise coefficients are evaluated at the post-Euler fields, and every
    variable sees the same increment: ``increment`` if given (the rng is then
    untouched), else one sampled.  Each variable is scanned for finiteness
    after its Euler update and after its perturbation; a blow-up names it.
    The fields may carry a leading member axis, with eta of shape (members,
    m).  The step never writes into the state's
    or the rhs's fields, and drops each post-Euler field once perturbed.
    """
    tilde = dict(state)
    if rhs is not None:
        upd = rhs(state)
        for k, field in state.items():
            if k in upd:
                tilde[k] = named_field(k, _euler, field, upd[k], dt)
        # dropped before the perturbation allocates: freed together with its
        # temporaries, the rhs's arrays let the heap shrink and regrow each step
        del upd
    if basis.is_null and increment is None:
        return tilde
    d = increment if increment is not None else make_increment(basis, dt, rng, safety)
    return {k: named_field(k, apply_increment, tilde.pop(k), assignment[k], d, nform_mode)
            for k in list(tilde)}


# ---------------------------------------------------------------------------
# stochastic advection-diffusion (0-form scalar)

def advection_diffusion_rhs(f: ScalarField, u_adv: VectorField, diffusivity: float) -> ScalarField:
    """-u.grad f + D laplace f."""
    if diffusivity < 0:
        raise ValueError(f"diffusivity must be nonnegative, got {diffusivity}")
    out = np.zeros(f.values.shape)
    for p in range(f.grid.dim):
        df = _d(f.values, p, f.grid)
        laplace_p = _d(df, p, f.grid) if diffusivity else None
        df *= u_adv.components[p].values
        out -= df
        if diffusivity:
            laplace_p *= diffusivity
            out += laplace_p
    return f.with_values(out)


# ---------------------------------------------------------------------------
# LU / SALT correspondences

def lu_basis(basis: NoiseBasis) -> NoiseBasis:
    """Install the drift a = sum_i (e_i.grad) e_i that realises transport-noise
    equations written with the Ito advecting velocity."""
    return basis.with_drift(ito_drift_correction(basis, 1.0))


def salt_increment(basis: NoiseBasis, dt: float, rng: np.random.Generator) -> DiffeoIncrement:
    """Map increment in the Stratonovich transport convention:
    drift (1/2)(e.grad)e, noise sign flipped (the same modes, eta negated).
    Its basis, `NoiseBasis.salt_basis`, is built once per basis."""
    eta = -sample_increments(basis.n_modes, dt, rng).eta
    return DiffeoIncrement(basis.salt_basis, BrownianIncrements(dt, eta))


def lu_discrepancy_0form(d: DiffeoIncrement, f: ScalarField) -> float:
    """Max-norm gap between perturb_0form under d and the transport-noise
    0-form increment assembled independently from d's modes (same eta)."""
    grid = f.grid
    ref_drift = ScalarField.zeros(grid)
    grads = [derivative(f, p) for p in range(grid.dim)]
    for e in d.basis.modes:
        for p in range(grid.dim):
            adv = ScalarField.zeros(grid)
            for q in range(grid.dim):
                adv = adv + e.components[q] * derivative(e.components[p], q)
            ref_drift = ref_drift + adv * grads[p]
            for q in range(grid.dim):
                ref_drift = ref_drift + 0.5 * e.components[p] * e.components[q] * second_derivative(f, p, q)
    ref = ref_drift * d.dt
    for e, eta in zip(d.basis.modes, d.increments.eta):
        noise = ScalarField.zeros(grid)
        for p in range(grid.dim):
            noise = noise + e.components[p] * grads[p]
        ref = ref + noise * float(eta)
    got = perturb_0form(f, d).realized
    return float(np.abs(got.values - ref.values).max())


def lu_discrepancy_nform(d: DiffeoIncrement, f: ScalarField) -> float:
    """Max-norm gap between the flux-form n-form increment under d and the
    transport-theorem form div((1/2 div A) f) + div((1/2) A grad f) with
    A = sum_i e_i e_i^T, noise -div(sigma dB f)."""
    grid = f.grid
    modes = d.basis.modes
    amat = [
        [
            sum((e.components[p] * e.components[q] for e in modes), start=ScalarField.zeros(grid))
            for q in range(grid.dim)
        ]
        for p in range(grid.dim)
    ]
    div_amat = []
    for p in range(grid.dim):
        acc = ScalarField.zeros(grid)
        for e in modes:
            for q in range(grid.dim):
                acc = acc + e.components[p] * derivative(e.components[q], q)
                acc = acc + derivative(e.components[p], q) * e.components[q]
        div_amat.append(acc)
    grads = [derivative(f, q) for q in range(grid.dim)]
    ref_drift = ScalarField.zeros(grid)
    for p in range(grid.dim):
        bracket = 0.5 * div_amat[p] * f
        for q in range(grid.dim):
            bracket = bracket + 0.5 * amat[p][q] * grads[q]
        ref_drift = ref_drift + derivative(bracket, p)
    ref = ref_drift * d.dt
    for e, eta in zip(modes, d.increments.eta):
        noise = sum(
            (derivative(e.components[p] * f, p) for p in range(grid.dim)),
            start=ScalarField.zeros(grid),
        )
        ref = ref + noise * float(eta)
    got = perturb_nform(f, d, NFormMode.FLUX).realized
    return float(np.abs(got.values - ref.values).max())


# ---------------------------------------------------------------------------
# thermal shallow water

@dataclass(frozen=True)
class TSWParams:
    kappa: float = 0.0
    h0: float = 1.0
    theta0: float = 1.0
    fcor: float = 0.0

    def __post_init__(self):
        if self.kappa < 0:
            raise ValueError("kappa must be nonnegative")
        if self.h0 <= 0 or self.theta0 <= 0:
            raise ValueError("reference height and contrast must be positive")


@dataclass(frozen=True)
class TSWState:
    """Active-layer height h, density contrast Theta, column velocity u.

    h and Theta must stay strictly positive; construction aborts otherwise
    rather than clipping, so conservation measurements stay honest.  The
    fields may carry one member axis (see `grid`): each member is checked
    on its own, and a failure names the first failing member.
    """

    h: ScalarField
    theta: ScalarField
    u: VectorField

    def __post_init__(self):
        if self.h.grid.dim != 2:
            raise ValueError("thermal shallow water is two-dimensional")
        if self.theta.grid != self.h.grid or self.u.grid != self.h.grid:
            raise ValueError("state fields must share one grid")
        for field, what, symbol in ((self.h, "layer height", "h"), (self.theta, "density contrast", "Theta")):
            lows = np.atleast_1d(field.values.min(axis=self.grid.trailing_axes))
            if (lows <= 0.0).any():
                member = int(np.argmax(lows <= 0.0))
                raise member_error(PositivityError, f"{what} lost positivity (min {symbol} = {lows[member]:.3e})",
                                   member if field.batch_shape else None)

    @property
    def grid(self) -> Grid:
        return self.h.grid

    def as_dict(self) -> State:
        return {"h": self.h, "theta": self.theta, "u": self.u}


TSW_ASSIGNMENT: dict[str, TensorClass] = {
    "h": TensorClass.N_FORM,
    "theta": TensorClass.N_VECTOR,
    "u": TensorClass.ZERO_FORM,
}


def tsw_deterministic_rhs(state: TSWState, params: TSWParams) -> State:
    """Right-hand sides of the deterministic system.

    dh/dt     = -div(h u)                      (flux form: mass to round-off)
    dTheta/dt = -(u.grad)Theta - kappa (h Theta - h0 Theta0)
    du/dt     = -(u.grad)u - f zhat x u - grad(h Theta) + (1/2) h grad Theta
    """
    grid = state.grid
    h, theta = state.h.values, state.theta.values
    u = [c.values for c in state.u.components]
    htheta = h * theta
    grad_theta = [_d(theta, p, grid) for p in range(2)]
    dh = _d(h * u[0], 0, grid)
    dh += _d(h * u[1], 1, grid)
    np.negative(dh, out=dh)
    dtheta = np.multiply(u[0], grad_theta[0])
    np.negative(dtheta, out=dtheta)
    dtheta -= np.multiply(u[1], grad_theta[1])
    relax = htheta - params.h0 * params.theta0
    relax *= params.kappa
    dtheta -= relax
    del relax
    du = []
    for j, coriolis in enumerate((params.fcor * u[1], -params.fcor * u[0])):
        coriolis -= _d(htheta, j, grid)
        half = 0.5 * h
        half *= grad_theta[j]
        coriolis += half
        for p in range(2):
            adv = _d(u[j], p, grid)
            adv *= u[p]
            coriolis -= adv
        du.append(coriolis)
    return {"h": named_field("h", ScalarField, grid, dh),
            "theta": named_field("theta", ScalarField, grid, dtheta),
            "u": named_field("u", VectorField.from_arrays, grid, du)}


def tsw_gravity_wave_speed(state: TSWState) -> float | Array:
    """sqrt(max h Theta); for a batch, an array with each member's own."""
    peak = np.sqrt((state.h.values * state.theta.values).max(axis=state.grid.trailing_axes))
    return peak if peak.ndim else float(peak)


def tsw_spde_step(
    state: TSWState,
    params: TSWParams,
    basis: NoiseBasis,
    dt: float,
    rng: np.random.Generator,
    *,
    rhs_enabled: bool = True,
    nform_mode: NFormMode = NFormMode.FLUX,
    safety: float = 1.0,
    c_stab: float = 1.0,
    increment: DiffeoIncrement | None = None,
) -> TSWState:
    """One thermal shallow water step; all three variables share one increment.

    A state batched over members steps each member as its own call would:
    each is checked against its own stability bound, and a failure names
    the first failing member.
    """
    vel, diff = basis.scales
    if rhs_enabled:
        vel = vel + (state.u.max_norm() + tsw_gravity_wave_speed(state))
    batch = state.h.batch_shape
    for member, scale in enumerate(np.broadcast_to(vel, batch or (1,))):
        check_stability(state.grid, dt, float(scale), diff, c_stab, member if batch else None)
    rhs = (lambda _: tsw_deterministic_rhs(state, params)) if rhs_enabled else None
    new = two_step_forecast(
        state.as_dict(), rhs, TSW_ASSIGNMENT, basis, dt, rng,
        nform_mode=nform_mode, safety=safety,
        increment=increment,
    )
    return TSWState(new["h"], new["theta"], new["u"])
