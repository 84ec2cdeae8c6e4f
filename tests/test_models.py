import gc
import weakref

import numpy as np
import pytest

from stochmap.grid import Grid, NonFiniteError, ScalarField, TensorClass, VectorField, stack_members
from stochmap.calculus import centered_difference, derivative, integrate
from stochmap.noise import (
    BrownianIncrements,
    ModeSpec,
    NoiseBasis,
    build_fourier_basis,
    fourier_mode_field,
    ito_drift_correction,
    sample_increments,
)
from stochmap.maps import DiffeoIncrement, forward_map, inverse_increment, make_increment
from stochmap.forms import NFormMode, perturb_0form, perturb_1form, perturb_nform, pushforward_nvector
from stochmap.models import (
    PositivityError,
    StabilityError,
    TSWParams,
    TSWState,
    advection_diffusion_rhs,
    apply_increment,
    check_stability,
    lu_basis,
    lu_correspondence_check,
    lu_discrepancy_0form,
    lu_discrepancy_nform,
    lu_nform_check,
    salt_increment,
    tsw_deterministic_rhs,
    tsw_gravity_wave_speed,
    tsw_spde_step,
    two_step_forecast,
)

TWO_PI = 2.0 * np.pi


def grid2(n=64):
    return Grid((n, n), (TWO_PI, TWO_PI))


def three_mode_basis(g):
    # includes one compressive mode so the correction drift is nonzero
    return build_fourier_basis(
        g,
        [
            ModeSpec(k=(1, 0), amplitude=(0.0, 0.25)),
            ModeSpec(k=(0, 2), amplitude=(0.2, 0.0)),
            ModeSpec(k=(1, 1), amplitude=(0.1, 0.1), solenoidal=False),
        ],
    )


def two_wave_basis(g):
    # one compressive mode that sums two non-parallel waves: unlike a single
    # plane wave it has e div e != (e.grad) e and a nonzero Jacobian wedge
    e = (fourier_mode_field(g, ModeSpec(k=(1, 1), amplitude=(0.08, 0.05), solenoidal=False), "sin")
         + fourier_mode_field(g, ModeSpec(k=(2, 0), amplitude=(0.03, 0.06), solenoidal=False), "cos"))
    return NoiseBasis(g, (e,), VectorField.zeros(g))


def smooth(g, fn):
    return ScalarField.from_function(g, fn)


# --- two-step forecast ---------------------------------------------------------

def test_forecast_with_null_basis_is_plain_euler():
    g = grid2(32)
    u = VectorField.constant(g, (0.7, -0.3))
    rhs = lambda s: {"f": advection_diffusion_rhs(s["f"], u, 0.01)}
    f0 = smooth(g, lambda x, y: 1.0 + 0.3 * np.sin(x) * np.cos(y))
    basis = NoiseBasis(g, (), VectorField.zeros(g))
    rng = np.random.default_rng(0)
    dt = 1e-3
    stoch = {"f": f0}
    det = {"f": f0}
    for _ in range(100):
        stoch = two_step_forecast(stoch, rhs, {"f": TensorClass.ZERO_FORM}, basis, dt, rng)
        det = {"f": det["f"] + rhs(det)["f"] * dt}
    assert np.array_equal(stoch["f"].values, det["f"].values)


def test_forecast_pure_perturbation_matches_operator():
    g = grid2()
    basis = three_mode_basis(g)
    d = make_increment(basis, 1e-3, np.random.default_rng(1))
    f = smooth(g, lambda x, y: 1.0 + 0.4 * np.cos(x + y))
    out = two_step_forecast({"f": f}, None, {"f": TensorClass.ZERO_FORM}, basis, 1e-3,
                            np.random.default_rng(99), increment=d)
    expect = f + perturb_0form(f, d).realized
    assert np.array_equal(out["f"].values, expect.values)


def test_forecast_noise_coefficients_use_post_euler_field():
    # with rhs on, the perturbation must act on the updated field
    g = grid2(32)
    basis = build_fourier_basis(g, [ModeSpec(k=(1, 0), amplitude=(0.0, 0.2))])
    d = make_increment(basis, 1e-3, np.random.default_rng(2))
    f = smooth(g, lambda x, y: 1.0 + 0.3 * np.sin(x))
    bump = smooth(g, lambda x, y: np.cos(y))
    rhs = lambda s: {"f": bump}
    out = two_step_forecast({"f": f}, rhs, {"f": TensorClass.ZERO_FORM}, basis, 1e-3,
                            np.random.default_rng(0), increment=d)
    tilde = f + bump * 1e-3
    expect = tilde + perturb_0form(tilde, d).realized
    assert np.array_equal(out["f"].values, expect.values)


@pytest.mark.parametrize("tensor_class, nform_mode, with_rhs", [
    (TensorClass.ZERO_FORM, NFormMode.FLUX, True),
    (TensorClass.N_FORM, NFormMode.FLUX, False),
    (TensorClass.N_FORM, NFormMode.POINTWISE, False),
    (TensorClass.N_VECTOR, NFormMode.FLUX, False),
], ids=["0form_rhs", "nform_flux", "nform_pointwise", "nvector"])
def test_forecast_of_a_member_batch_equals_its_members_one_by_one(tensor_class, nform_mode, with_rhs):
    # three members stacked on a leading axis, each with its own draw, keep
    # the bits of three single-member forecasts over three steps
    g = grid2(32)
    basis = lu_basis(two_wave_basis(g))
    u = VectorField.constant(g, (0.7, -0.3))
    rhs = (lambda s: {"f": advection_diffusion_rhs(s["f"], u, 0.01)}) if with_rhs else None
    members = [smooth(g, lambda x, y, k=k: 1.0 + 0.3 * np.sin(x + k) * np.cos(y)) for k in range(3)]
    etas = np.random.default_rng(4).normal(0.0, np.sqrt(1e-3), size=(3, 3, basis.n_modes))  # (step, member, m)

    def forecast(state, eta):
        d = DiffeoIncrement(basis, BrownianIncrements(1e-3, eta))
        return two_step_forecast(state, rhs, {"f": tensor_class}, basis, 1e-3, np.random.default_rng(0),
                                 nform_mode=nform_mode, increment=d)

    batch = {"f": ScalarField(g, np.stack([f.values for f in members]))}
    for eta in etas:
        batch = forecast(batch, eta)
    for k, f in enumerate(members):
        one = {"f": f}
        for eta in etas:
            one = forecast(one, eta[k])
        assert np.array_equal(batch["f"].values[k], one["f"].values)


def test_forecast_needs_the_member_axis_of_its_increment():
    # a batch under one draw, or one member under a batch of draws, is an error
    g = grid2(16)
    basis = lu_basis(two_wave_basis(g))
    f = smooth(g, lambda x, y: 1.0 + 0.3 * np.sin(x) * np.cos(y))
    batch = ScalarField(g, np.stack([f.values, f.values]))
    one = DiffeoIncrement(basis, BrownianIncrements(1e-3, np.full(basis.n_modes, 0.01)))
    two = DiffeoIncrement(basis, BrownianIncrements(1e-3, np.full((2, basis.n_modes), 0.01)))
    for field, d, shapes in [(batch, one, r"\(2,\) but increment over \(\)"),
                             (f, two, r"\(\) but increment over \(2,\)")]:
        for tensor_class in (TensorClass.ZERO_FORM, TensorClass.N_FORM, TensorClass.N_VECTOR):
            with pytest.raises(ValueError, match=rf"field batched over {shapes}"):
                two_step_forecast({"f": field}, None, {"f": tensor_class}, basis, 1e-3,
                                  np.random.default_rng(0), increment=d)


@pytest.mark.parametrize("tensor_class", [TensorClass.ZERO_FORM, TensorClass.N_FORM, TensorClass.N_VECTOR])
def test_forecast_leaves_its_input_state_unchanged(tensor_class):
    # the step forms its sums in arrays of its own; an rhs that hands back
    # the state's own field must not see it overwritten
    g = grid2(32)
    basis = lu_basis(two_wave_basis(g))
    f = smooth(g, lambda x, y: 1.0 + 0.3 * np.sin(x) * np.cos(y))
    before = f.values.copy()
    d = make_increment(basis, 1e-3, np.random.default_rng(6))
    out = two_step_forecast({"f": f}, lambda s: {"f": s["f"]}, {"f": tensor_class}, basis, 1e-3,
                            np.random.default_rng(0), increment=d)
    assert np.array_equal(f.values, before)
    tilde = f + f * 1e-3
    assert np.array_equal(out["f"].values, apply_increment(tilde, tensor_class, d).values)


def vector_0form_realized(v, d):
    return VectorField(v.grid, tuple(perturb_0form(c, d).realized for c in v.components))


@pytest.mark.parametrize("tensor_class, vector, realized", [
    (TensorClass.ZERO_FORM, False, lambda f, d: perturb_0form(f, d).realized),
    (TensorClass.ZERO_FORM, True, vector_0form_realized),
    (TensorClass.N_FORM, False, lambda f, d: perturb_nform(f, d).realized),
    (TensorClass.ONE_FORM, True, lambda v, d: perturb_1form(v, d).realized),
    (TensorClass.N_VECTOR, False, lambda g, d: pushforward_nvector(g, inverse_increment(d)).realized),
], ids=["0form", "0form_vector", "nform", "1form", "nvector"])
def test_forecast_is_post_euler_field_plus_realized_increment(tensor_class, vector, realized):
    # the step adds raw arrays and wraps each variable once; the sum must be
    # bitwise the field arithmetic on the operator's realised increment
    g = grid2(32)
    basis = lu_basis(two_wave_basis(g))
    d = make_increment(basis, 1e-3, np.random.default_rng(3))
    f = smooth(g, lambda x, y: 1.0 + 0.3 * np.sin(x) * np.cos(2 * y))
    bump = smooth(g, lambda x, y: np.cos(y) - 0.5 * np.sin(x + y))
    if vector:
        f = VectorField(g, (f, smooth(g, lambda x, y: 0.2 * np.cos(x - y))))
        bump = VectorField(g, (bump, -0.7 * bump))
    out = two_step_forecast({"x": f}, lambda s: {"x": bump}, {"x": tensor_class}, basis, 1e-3,
                            np.random.default_rng(0), increment=d)["x"]
    tilde = f + bump * 1e-3
    expect = tilde + realized(tilde, d)
    if vector:
        assert all(np.array_equal(a.values, b.values) for a, b in zip(out.components, expect.components))
    else:
        assert np.array_equal(out.values, expect.values)


def test_tsw_step_wraps_each_state_variable_once_per_phase(monkeypatch):
    # 4 right-hand-side outputs, 4 post-Euler components and 4 perturbed
    # components per step; the perturbation builds no field of its own, and
    # the right-hand side reads the state it is given, so the step builds
    # one TSWState, its result
    g = grid2(32)
    rng = np.random.default_rng(4)
    state = TSWState(smooth(g, lambda x, y: 1.0 + 0.05 * np.sin(x)),
                     smooth(g, lambda x, y: 1.0 + 0.04 * np.cos(y)),
                     VectorField(g, (smooth(g, lambda x, y: 0.05 * np.sin(y)), ScalarField.zeros(g))))
    basis = lu_basis(three_mode_basis(g))
    state = tsw_spde_step(state, TSWParams(), basis, 1e-3, rng)   # builds the basis's cached parts
    built = {ScalarField: 0, TSWState: 0}

    def counting(cls):
        post_init = cls.__post_init__

        def count(self):
            built[cls] += 1
            post_init(self)
        return count

    for cls in built:
        monkeypatch.setattr(cls, "__post_init__", counting(cls))
    for _ in range(10):
        state = tsw_spde_step(state, TSWParams(), basis, 1e-3, rng)
    assert built[ScalarField] <= 12 * 10
    assert built[TSWState] == 10


def test_forecast_blowup_names_the_state_variable():
    g = grid2(32)
    one = ScalarField.constant(g, 1.0)
    big = ScalarField.constant(g, 1e308)
    null = NoiseBasis(g, (), VectorField.zeros(g))
    zero_forms = {"a": TensorClass.ZERO_FORM, "b": TensorClass.ZERO_FORM}
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError, match=r"^b: field values must be finite$"):
        two_step_forecast({"a": one, "b": big}, lambda s: {"a": one, "b": big}, zero_forms, null, 10.0,
                          np.random.default_rng(0))
    # node values 0, M, 0, -M repeat along x: the centered difference is +-2M = inf
    spiky = smooth(g, lambda x, y: 1e308 * np.sin(8 * x))
    basis = three_mode_basis(g)
    d = make_increment(basis, 1e-3, np.random.default_rng(1))
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError, match=r"^a: field values must be finite$"):
        two_step_forecast({"b": one, "a": spiky}, None, zero_forms, basis, 1e-3,
                          np.random.default_rng(0), increment=d)


@pytest.mark.parametrize("name, h, theta, ux, params", [
    ("h", 1e200, 1.0, 1e200, TSWParams()),                  # h u overflows in the mass flux
    ("theta", 1.0, 1e300, 0.0, TSWParams(kappa=1e10)),      # the thermal relaxation overflows
    ("u", 1.0, 1.0, 1e300, TSWParams(fcor=1e10)),           # the Coriolis term overflows
], ids=["h", "theta", "u"])
def test_tsw_rhs_blowup_names_the_state_variable(name, h, theta, ux, params):
    g = grid2(16)
    state = TSWState(ScalarField.constant(g, h), ScalarField.constant(g, theta), VectorField.constant(g, (ux, 0.0)))
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError, match=f"^{name}: field values must be finite$"):
        tsw_deterministic_rhs(state, params)


# --- advection-diffusion rhs ----------------------------------------------------

def test_advection_rhs_constant_field():
    g = grid2(32)
    rhs = advection_diffusion_rhs(ScalarField.constant(g, 2.0), VectorField.constant(g, (1.0, 1.0)), 0.5)
    assert np.all(rhs.values == 0.0)


def test_advection_rhs_pure_diffusion_analytic():
    g = grid2()
    f = smooth(g, lambda x, y: np.sin(x))
    got = advection_diffusion_rhs(f, VectorField.zeros(g), 0.25)
    x, _ = g.coords()
    assert np.abs(got.values + 0.25 * np.sin(x)).max() < g.spacing[0] ** 2


def test_advection_rhs_rejects_negative_diffusivity():
    g = grid2(16)
    with pytest.raises(ValueError):
        advection_diffusion_rhs(ScalarField.constant(g, 1.0), VectorField.zeros(g), -1.0)


def test_advection_rhs_matches_fourier_symbol_oracle():
    # independent FFT evaluation of the same stencils: advection symbol
    # -i u.sin(kh)/h, diffusion symbol -D sum sin^2(kh)/h^2 (composed stencil)
    rng = np.random.default_rng(21)
    n = 64
    g = grid2(n)
    spec = np.zeros((n, n), dtype=complex)
    for _ in range(12):
        kx, ky = rng.integers(-4, 5, size=2)
        c = rng.normal() + 1j * rng.normal()
        spec[kx, ky] += c
        spec[-kx, -ky] += np.conj(c)
    f = ScalarField(g, np.real(np.fft.ifft2(spec)))
    u = (0.8, -0.5)
    diff = 0.3
    got = advection_diffusion_rhs(f, VectorField.constant(g, u), diff)
    h = g.spacing[0]
    k = np.fft.fftfreq(n, d=1.0 / n)
    kxg, kyg = np.meshgrid(k, k, indexing="ij")
    ktx, kty = np.sin(kxg * h) / h, np.sin(kyg * h) / h
    symbol = -1j * (u[0] * ktx + u[1] * kty) - diff * (ktx**2 + kty**2)
    oracle = np.real(np.fft.ifft2(symbol * np.fft.fft2(f.values)))
    assert np.abs(got.values - oracle).max() < 1e-12


# --- transport-noise correspondences ---------------------------------------------

def test_lu_correspondence_0form_any_basis():
    g = grid2()
    f = smooth(g, lambda x, y: 1.0 + 0.5 * np.sin(x) * np.cos(y) + 0.2 * np.cos(2 * y))
    for basis in (three_mode_basis(g), two_wave_basis(g)):
        disc = lu_correspondence_check(basis, f, 1e-3, np.random.default_rng(3))
        assert disc < 1e-12


def test_lu_correspondence_constant_mode_trivial():
    g = grid2()
    basis = build_fourier_basis(g, [ModeSpec(k=(0, 0), amplitude=(0.5, 0.2))])
    f = smooth(g, lambda x, y: np.sin(x) + np.cos(y))
    disc = lu_correspondence_check(basis, f, 1e-3, np.random.default_rng(4))
    assert disc < 1e-14


def test_lu_nform_reynolds_any_basis():
    g = grid2()
    f = smooth(g, lambda x, y: 1.0 + 0.4 * np.cos(x + y))
    for basis in (three_mode_basis(g), two_wave_basis(g)):
        disc = lu_nform_check(basis, f, 1e-3, np.random.default_rng(5))
        assert disc < 1e-10


def test_lu_checks_detect_missing_drift():
    g = grid2()
    basis = three_mode_basis(g)  # nonzero correction drift required
    f = smooth(g, lambda x, y: 1.0 + 0.5 * np.sin(x) * np.cos(y))
    d_bad = make_increment(basis, 1e-3, np.random.default_rng(6))
    assert lu_discrepancy_0form(d_bad, f) > 1e-8
    assert lu_discrepancy_nform(d_bad, f) > 1e-8


def test_lu_inverse_map_is_pure_noise_shift():
    g = grid2()
    basis = lu_basis(three_mode_basis(g))
    d = make_increment(basis, 1e-3, np.random.default_rng(7))
    from stochmap.maps import inverse_map

    pts = g.points()
    inv = inverse_map(d, pts)
    expect = pts.copy()
    for e, eta in zip(d.basis.modes, d.increments.eta):
        expect = expect - float(eta) * np.stack([c.values.reshape(-1) for c in e.components], axis=-1)
    gap = np.abs(g.wrap_displacement(inv - g.wrap(expect))).max()
    assert gap < 1e-12


def test_salt_increment_drift_and_noise_sign():
    g = grid2()
    basis = three_mode_basis(g)
    d = salt_increment(basis, 1e-3, np.random.default_rng(8))
    eta = sample_increments(basis.n_modes, 1e-3, np.random.default_rng(8)).eta
    half = ito_drift_correction(basis, 0.5)
    full = ito_drift_correction(basis, 1.0)
    for p in range(2):
        assert np.array_equal(d.basis.drift.components[p].values, half.components[p].values)
        assert np.array_equal(2.0 * half.components[p].values, full.components[p].values)
        for e_s, eta_s, e, eta_i in zip(d.basis.modes, d.increments.eta, basis.modes, eta):
            assert np.array_equal(e_s.components[p].values * eta_s, -e.components[p].values * eta_i)


def test_salt_basis_is_built_once_per_basis_and_dies_with_it():
    g = grid2(32)
    basis = three_mode_basis(g)
    rng = np.random.default_rng(8)
    first, second = salt_increment(basis, 1e-3, rng), salt_increment(basis, 1e-3, rng)
    assert first.basis is second.basis
    # the bits of a basis built on every call
    rebuilt = basis.with_drift(ito_drift_correction(basis, 0.5))
    for p in range(2):
        assert np.array_equal(first.basis.drift.components[p].values, rebuilt.drift.components[p].values)
    salt = weakref.ref(first.basis)
    del first, second
    gc.disable()
    try:
        del basis
        assert salt() is None
    finally:
        gc.enable()


def test_salt_constant_mode_is_pure_shift():
    g = Grid((8, 8), (TWO_PI, TWO_PI))
    basis = build_fourier_basis(g, [ModeSpec(k=(0, 0), amplitude=(1.0, 0.0))])
    d = salt_increment(basis, 1e-3, np.random.default_rng(9))
    pts = g.points()
    got = forward_map(d, pts)
    shift = -sample_increments(1, 1e-3, np.random.default_rng(9)).eta[0]
    assert np.allclose(g.wrap_displacement(got - pts), [shift, 0.0], atol=1e-13)


def test_salt_0form_is_stratonovich_transport_expansion():
    # Stratonovich -(e o deta).grad f in Ito form:
    #   -(e.grad f) deta + (1/2)(e.grad)(e.grad f) dt, with shared stencils
    g = grid2()
    basis = build_fourier_basis(g, [ModeSpec(k=(1, 1), amplitude=(0.2, 0.1), solenoidal=False)])
    d = salt_increment(basis, 1e-3, np.random.default_rng(10))
    f = smooth(g, lambda x, y: 1.0 + 0.5 * np.sin(x) * np.cos(y))
    got = perturb_0form(f, d).realized
    e = basis.modes[0]
    egradf = sum(e.components[p].values * derivative(f, p).values for p in range(2))
    egrad_egradf = sum(
        e.components[p].values * derivative(ScalarField(g, egradf), p).values for p in range(2)
    )
    # (e.grad)(e.grad f) = (e.grad e).grad f + e e : grad grad f; the closed
    # form assembles the right side, so compare against that split
    adv = ito_drift_correction(basis, 1.0)
    drift = 0.5 * (
        sum(adv.components[p].values * derivative(f, p).values for p in range(2))
        + sum(
            e.components[p].values * e.components[q].values
            * derivative(derivative(f, p), q).values
            for p in range(2) for q in range(2)
        )
    )
    eta = sample_increments(1, 1e-3, np.random.default_rng(10)).eta
    expect = drift * d.dt - egradf * eta[0]
    assert np.abs(got.values - expect).max() < 1e-13
    # nested assembly (e.grad)(e.grad f) agrees with the split form at
    # truncation level only (discrete product rule is O(h^2))
    assert np.abs(egrad_egradf - 2 * drift).max() < 5 * g.spacing[0] ** 2


# --- stability / positivity guards ------------------------------------------------

def test_check_stability_raises_past_bound():
    g = grid2(64)
    check_stability(g, 1e-3, velocity_scale=1.0, diffusivity=0.0)
    with pytest.raises(StabilityError):
        check_stability(g, 1.0, velocity_scale=10.0, diffusivity=0.0)
    with pytest.raises(StabilityError):
        check_stability(g, 1.0, velocity_scale=0.0, diffusivity=1.0)


def test_tsw_state_positivity_guard():
    g = grid2(16)
    with pytest.raises(PositivityError):
        TSWState(ScalarField.constant(g, -1.0), ScalarField.constant(g, 1.0), VectorField.zeros(g))
    with pytest.raises(PositivityError):
        TSWState(ScalarField.constant(g, 1.0), ScalarField.constant(g, 0.0), VectorField.zeros(g))


def test_tsw_batch_checks_each_member_and_names_the_first_failing_one():
    g = grid2(16)
    rng = np.random.default_rng(8)
    members = [TSWState(ScalarField(g, 1.0 + 0.1 * rng.random(g.shape)), ScalarField.constant(g, 1.0),
                        VectorField.from_arrays(g, [rng.normal(size=g.shape) for _ in range(2)]))
               for _ in range(3)]
    members[1] = TSWState(members[1].h, members[1].theta, members[1].u * 40.0)   # past its stability bound
    h, theta, u = (stack_members(list(fields)) for fields in zip(*((s.h, s.theta, s.u) for s in members)))
    batch = TSWState(h, theta, u)
    assert list(tsw_gravity_wave_speed(batch)) == [tsw_gravity_wave_speed(s) for s in members]
    basis = NoiseBasis(g, (), VectorField.zeros(g))
    with pytest.raises(StabilityError) as single:
        tsw_spde_step(members[1], TSWParams(), basis, 1e-2, np.random.default_rng(0))
    with pytest.raises(StabilityError) as batched:
        tsw_spde_step(batch, TSWParams(), basis, 1e-2, [np.random.default_rng(k) for k in range(3)])
    assert str(batched.value) == f"member 1: {single.value}"
    low = h.values.copy()
    low[2, 3, 4] = -0.5
    with pytest.raises(PositivityError, match=r"^member 2: layer height lost positivity \(min h = -5\.000e-01\)$"):
        TSWState(ScalarField(g, low), theta, u)
    low = theta.values.copy()
    low[1] = 0.0
    with pytest.raises(PositivityError, match=r"^member 1: density contrast lost positivity"):
        TSWState(h, ScalarField(g, low), u)


def _plain_tsw_rhs(state, params):
    """The right-hand side as plain expressions, one fresh array per operation."""
    h, theta = state.h.values, state.theta.values
    u = [c.values for c in state.u.components]
    d = lambda v, p: centered_difference(v, p, state.grid)
    htheta = h * theta
    grad_theta = [d(theta, p) for p in range(2)]
    dh = -(0.0 + d(h * u[0], 0) + d(h * u[1], 1))
    dtheta = 0.0 - u[0] * grad_theta[0] - u[1] * grad_theta[1]
    dtheta = dtheta - params.kappa * (htheta - params.h0 * params.theta0)
    coriolis = (params.fcor * u[1], -params.fcor * u[0])
    du = [coriolis[j] - d(htheta, j) + 0.5 * h * grad_theta[j] - u[0] * d(u[j], 0) - u[1] * d(u[j], 1)
          for j in range(2)]
    return dh, dtheta, du


@pytest.mark.parametrize("members", [None, 3])
def test_tsw_rhs_sums_in_place_have_the_bits_of_the_plain_expressions(members):
    g = grid2(16)
    rng = np.random.default_rng(21)
    shape = g.shape if members is None else (members,) + g.shape
    state = TSWState(ScalarField(g, 1.0 + 0.2 * rng.random(shape)), ScalarField(g, 1.0 + 0.2 * rng.random(shape)),
                     VectorField.from_arrays(g, [rng.normal(size=shape) for _ in range(2)]))
    state.u.components[1].values[..., 0, :] = 0.0     # zeros whose sign the sums from 0.0 fix
    params = TSWParams(kappa=0.3, h0=1.1, theta0=0.9, fcor=1.7)
    got = tsw_deterministic_rhs(state, params)
    dh, dtheta, du = _plain_tsw_rhs(state, params)
    for a, b in [(got["h"].values, dh), (got["theta"].values, dtheta)] + [
            (c.values, want) for c, want in zip(got["u"].components, du)]:
        assert a.tobytes() == b.tobytes()


# --- thermal shallow water ---------------------------------------------------------

def rest_state(g, h0=1.0, theta0=1.0):
    return TSWState(
        ScalarField.constant(g, h0),
        ScalarField.constant(g, theta0),
        VectorField.zeros(g),
    )


def test_tsw_rest_state_is_equilibrium():
    g = grid2(32)
    rhs = tsw_deterministic_rhs(rest_state(g), TSWParams(kappa=0.5, fcor=1.0))
    assert np.abs(rhs["h"].values).max() == 0.0
    assert np.abs(rhs["theta"].values).max() == 0.0
    for c in rhs["u"].components:
        assert np.abs(c.values).max() == 0.0


def test_tsw_pressure_gradient_analytic():
    # h = h0 + eps sin x, Theta = Theta0, u = 0:
    # du/dt = -grad(h Theta) + (1/2) h grad Theta = -Theta0 grad h
    g = grid2()
    eps, theta0 = 0.05, 1.3
    h = smooth(g, lambda x, y: 1.0 + eps * np.sin(x))
    state = TSWState(h, ScalarField.constant(g, theta0), VectorField.zeros(g))
    rhs = tsw_deterministic_rhs(state, TSWParams(theta0=theta0))
    expect = -theta0 * derivative(h, 0).values
    assert np.abs(rhs["u"].components[0].values - expect).max() < 1e-13
    assert np.abs(rhs["u"].components[1].values).max() < 1e-13
    assert np.abs(rhs["h"].values).max() == 0.0


def test_tsw_thermal_relaxation_linear():
    g = grid2(32)
    kappa, h0, theta0, delta = 0.7, 1.0, 1.0, 0.01
    state = TSWState(
        ScalarField.constant(g, h0),
        ScalarField.constant(g, theta0 + delta),
        VectorField.zeros(g),
    )
    rhs = tsw_deterministic_rhs(state, TSWParams(kappa=kappa, h0=h0, theta0=theta0))
    assert np.allclose(rhs["theta"].values, -kappa * h0 * delta, atol=1e-14)


def test_tsw_coriolis_sign():
    g = grid2(32)
    state = TSWState(
        ScalarField.constant(g, 1.0),
        ScalarField.constant(g, 1.0),
        VectorField.constant(g, (1.0, 0.0)),
    )
    rhs = tsw_deterministic_rhs(state, TSWParams(fcor=2.0))
    # -f zhat x u with u = (1, 0) gives (0, -f)
    assert np.allclose(rhs["u"].components[0].values, 0.0, atol=1e-14)
    assert np.allclose(rhs["u"].components[1].values, -2.0, atol=1e-14)


def test_tsw_step_null_basis_matches_euler():
    g = grid2(32)
    rng = np.random.default_rng(11)
    from stochmap.runner_support import smooth_scalar, smooth_vector

    state = TSWState(
        smooth_scalar(g, rng, offset=1.0, amplitude=0.05),
        smooth_scalar(g, rng, offset=1.0, amplitude=0.05),
        smooth_vector(g, rng, amplitude=0.05),
    )
    params = TSWParams(kappa=0.2, fcor=0.5)
    basis = NoiseBasis(g, (), VectorField.zeros(g))
    stepped = tsw_spde_step(state, params, basis, 1e-3, np.random.default_rng(0))
    rhs = tsw_deterministic_rhs(state, params)
    assert np.array_equal(stepped.h.values, (state.h + rhs["h"] * 1e-3).values)
    assert np.array_equal(stepped.theta.values, (state.theta + rhs["theta"] * 1e-3).values)
    for p in range(2):
        expect = state.u.components[p] + rhs["u"].components[p] * 1e-3
        assert np.array_equal(stepped.u.components[p].values, expect.values)


def test_tsw_step_conserves_mass_to_roundoff():
    g = grid2()
    rng = np.random.default_rng(12)
    from stochmap.runner_support import smooth_scalar, smooth_vector

    state = TSWState(
        smooth_scalar(g, rng, offset=1.0, amplitude=0.05),
        smooth_scalar(g, rng, offset=1.0, amplitude=0.05),
        smooth_vector(g, rng, amplitude=0.05),
    )
    basis = build_fourier_basis(
        g, [ModeSpec(k=(1, 0), amplitude=(0.0, 0.2)), ModeSpec(k=(0, 2), amplitude=(0.15, 0.0))]
    )
    mass0 = integrate(state.h)
    s = state
    for _ in range(5):
        s = tsw_spde_step(s, TSWParams(), basis, 1e-3, rng, rhs_enabled=True)
        assert abs(integrate(s.h) - mass0) / mass0 < 1e-12


def test_tsw_step_literal_sec5_transcription():
    """One realised step must equal an independent literal transcription of the
    three stochastic right-hand sides, term by term, in pointwise mode."""
    g = grid2()
    rng = np.random.default_rng(13)
    from stochmap.runner_support import smooth_scalar, smooth_vector

    state = TSWState(
        smooth_scalar(g, rng, offset=1.0, amplitude=0.08),
        smooth_scalar(g, rng, offset=1.0, amplitude=0.06),
        smooth_vector(g, rng, amplitude=0.05),
    )
    params = TSWParams(kappa=0.3, fcor=1.2)
    basis = build_fourier_basis(
        g,
        [
            ModeSpec(k=(1, 0), amplitude=(0.0, 0.2)),
            ModeSpec(k=(1, 1), amplitude=(0.1, 0.1), solenoidal=False),
        ],
        drift=VectorField.constant(g, (0.05, -0.02)),
    )
    dt = 1e-3
    d = make_increment(basis, dt, np.random.default_rng(14))
    got = tsw_spde_step(state, params, basis, dt, np.random.default_rng(0),
                        nform_mode=NFormMode.POINTWISE, increment=d)

    # deterministic half-step
    rhs = tsw_deterministic_rhs(state, params)
    h = state.h + rhs["h"] * dt
    theta = state.theta + rhs["theta"] * dt
    u = [state.u.components[p] + rhs["u"].components[p] * dt for p in range(2)]

    D = derivative
    a = basis.drift
    modes = basis.modes
    eta = d.increments.eta

    def adv(e, p):  # (e.grad) e^p
        return sum((e.components[q] * D(e.components[p], q) for q in range(2)),
                   start=ScalarField.zeros(g))

    def div(v):
        return sum((D(v.components[p], p) for p in range(2)), start=ScalarField.zeros(g))

    def wedge(e):
        out = div(e) * div(e)
        for p in range(2):
            for q in range(2):
                out = out - D(e.components[q], p) * D(e.components[p], q)
        return out

    # height: density-form increment
    dh = div(a) * h
    for p in range(2):
        dh = dh + a.components[p] * D(h, p)
    for e in modes:
        dh = dh + 0.5 * wedge(e) * h
        for p in range(2):
            dh = dh + e.components[p] * div(e) * D(h, p)
            for q in range(2):
                dh = dh + 0.5 * e.components[p] * e.components[q] * D(D(h, p), q)
    h_new = h + dh * dt
    for e, et in zip(modes, eta):
        noise = div(e) * h
        for p in range(2):
            noise = noise + e.components[p] * D(h, p)
        h_new = h_new + noise * float(et)

    # contrast: dual-density increment along the inverse displacement
    dth = (-1.0) * div(a) * theta
    for p in range(2):
        dth = dth + D(ScalarField(g, sum(adv(e, p).values for e in modes)), p) * theta
        dth = dth + a.components[p] * D(theta, p)
    for e in modes:
        dth = dth + 0.5 * wedge(e) * theta
        # the n-vector's -(e.grad)(div e) g, from det J_T taken at the inverse
        # point; it is even in e, so the inverse increment's term is the same
        dth = dth - sum((e.components[p] * D(div(e), p) for p in range(2)),
                        start=ScalarField.zeros(g)) * theta
        for p in range(2):
            dth = dth - e.components[p] * div(e) * D(theta, p)
            for q in range(2):
                dth = dth + 0.5 * e.components[p] * e.components[q] * D(D(theta, p), q)
    th_new = theta + dth * dt
    for e, et in zip(modes, eta):
        noise = div(e) * theta
        for p in range(2):
            noise = noise - e.components[p] * D(theta, p)
        th_new = th_new - noise * float(et)

    # velocity components: plain scalar transport
    u_new = []
    for j in range(2):
        duj = ScalarField.zeros(g)
        for p in range(2):
            duj = duj + a.components[p] * D(u[j], p)
            for e in modes:
                for q in range(2):
                    duj = duj + 0.5 * e.components[p] * e.components[q] * D(D(u[j], p), q)
        unew = u[j] + duj * dt
        for e, et in zip(modes, eta):
            noise = sum((e.components[p] * D(u[j], p) for p in range(2)),
                        start=ScalarField.zeros(g))
            unew = unew + noise * float(et)
        u_new.append(unew)

    scale = max(abs(got.h.values).max(), 1.0)
    assert np.abs(got.h.values - h_new.values).max() < 1e-12 * scale
    assert np.abs(got.theta.values - th_new.values).max() < 1e-12 * scale
    for p in range(2):
        assert np.abs(got.u.components[p].values - u_new[p].values).max() < 1e-12 * scale


def test_tsw_step_aborts_on_positivity_loss():
    # thermal relaxation overshoot: kappa dt (h Theta - h0 Theta0) > Theta
    # drives the contrast negative in a single Euler step
    g = grid2(32)
    state = TSWState(
        ScalarField.constant(g, 1.0),
        ScalarField.constant(g, 2.0),
        VectorField.zeros(g),
    )
    basis = NoiseBasis(g, (), VectorField.zeros(g))
    with pytest.raises(PositivityError):
        tsw_spde_step(state, TSWParams(kappa=300.0), basis, 1e-2,
                      np.random.default_rng(0))


def test_tsw_step_aborts_on_stability():
    g = grid2(64)
    state = rest_state(g)
    basis = NoiseBasis(g, (), VectorField.zeros(g))
    with pytest.raises(StabilityError):
        tsw_spde_step(state, TSWParams(), basis, 1.0, np.random.default_rng(0))


def test_martingale_noise_mean_decays():
    g = grid2(32)
    basis = build_fourier_basis(g, [ModeSpec(k=(1, 0), amplitude=(0.0, 0.3))])
    f = smooth(g, lambda x, y: 1.0 + 0.5 * np.sin(x) * np.cos(y))
    rng = np.random.default_rng(15)
    dt = 1e-3

    def noise_mean(members):
        acc = np.zeros(g.shape)
        for _ in range(members):
            d = make_increment(basis, dt, rng)
            r = perturb_0form(f, d)
            acc += r.realized.values - r.drift * dt
        return np.sqrt(np.mean((acc / members) ** 2))

    scale = np.sqrt(dt) * 0.3 * 0.5  # ~ |N| sqrt(dt)
    assert noise_mean(400) < 5 * scale / np.sqrt(400)
