import numpy as np
import pytest

from stochmap.grid import Grid, ScalarField, TensorClass, VectorField
from stochmap.calculus import centered_difference, integrate, sample_at
from stochmap.noise import (
    BrownianIncrements,
    ModeSpec,
    NoiseBasis,
    build_fourier_basis,
    fourier_mode_field,
    ito_drift_correction,
    jacobian_wedge,
    mode_gradient,
)
from stochmap.maps import DiffeoIncrement, forward_map, inverse_increment, inverse_map, make_increment
from stochmap.forms import (
    NFormMode,
    oracle_remap,
    perturb_0form,
    perturb_1form,
    perturb_mixed_pair,
    perturb_nform,
    perturb_volume_multiplier,
    pushforward_nvector,
)

TWO_PI = 2.0 * np.pi


def grid2(n=64):
    return Grid((n, n), (TWO_PI, TWO_PI))


def constant_mode_increment(grid, amp=(1.0, 0.0), eta=0.02, dt=1e-3, drift=None):
    basis = build_fourier_basis(grid, [ModeSpec(k=(0, 0), amplitude=amp)], drift=drift)
    return DiffeoIncrement(basis, BrownianIncrements(dt=dt, eta=np.array([eta])))


def null_increment(grid, dt=1e-3):
    basis = NoiseBasis(grid, (), VectorField.zeros(grid))
    return DiffeoIncrement(basis, BrownianIncrements(dt=dt, eta=np.zeros(0)))


def smooth(grid, fn):
    return ScalarField.from_function(grid, fn)


# --- 0-form -----------------------------------------------------------------

def test_0form_constant_field_unchanged():
    g = grid2()
    d = constant_mode_increment(g)
    r = perturb_0form(ScalarField.constant(g, 2.0), d)
    assert np.all(r.realized.values == 0.0)


def test_0form_pure_drift_advection_1d():
    g = Grid((64,), (TWO_PI,))
    basis = NoiseBasis(g, (), VectorField.constant(g, (1.0,)))
    d = DiffeoIncrement(basis, BrownianIncrements(dt=1e-3, eta=np.zeros(0)))
    f = smooth(g, np.sin)
    r = perturb_0form(f, d)
    x = g.coords()[0]
    assert np.abs(r.drift - np.cos(x)).max() < 2 * g.spacing[0] ** 2
    assert isinstance(r.noise, np.ndarray) and r.noise.shape == g.shape
    assert np.all(r.noise == 0.0)


def test_0form_constant_mode_analytic():
    # e = (1, 0), a = 0, f = sin x: drift = -sin(x)/2, noise = eta cos x
    g = grid2()
    d = constant_mode_increment(g, amp=(1.0, 0.0))
    eta = float(d.increments.eta[0])
    f = smooth(g, lambda x, y: np.sin(x))
    r = perturb_0form(f, d)
    x, _ = g.coords()
    h = g.spacing[0]
    assert np.abs(r.drift + 0.5 * np.sin(x)).max() < h**2
    assert np.abs(r.noise - eta * np.cos(x)).max() < abs(eta) * h**2
    assert np.array_equal(r.realized.values, r.drift * d.dt + r.noise)


def test_0form_zero_increment_is_zero():
    g = grid2(32)
    d = null_increment(g)
    f = smooth(g, lambda x, y: np.sin(x) * np.cos(y))
    assert np.all(perturb_0form(f, d).realized.values == 0.0)


def test_0form_linearity():
    g = grid2(32)
    d = make_increment(
        build_fourier_basis(g, [ModeSpec(k=(1, 0), amplitude=(0.0, 0.2))]),
        1e-3, np.random.default_rng(0),
    )
    rng = np.random.default_rng(1)
    f1 = ScalarField(g, rng.standard_normal(g.shape))
    f2 = ScalarField(g, rng.standard_normal(g.shape))
    lhs = perturb_0form(2.0 * f1 + (-0.5) * f2, d).realized.values
    rhs = 2.0 * perturb_0form(f1, d).realized.values - 0.5 * perturb_0form(f2, d).realized.values
    assert np.allclose(lhs, rhs, atol=1e-14)


@pytest.mark.parametrize("op", ["nform_flux", "nform_pointwise", "nvector", "oneform"])
def test_every_operator_linear_in_the_field(op):
    g = grid2(32)
    basis = build_fourier_basis(
        g,
        [ModeSpec(k=(1, 0), amplitude=(0.0, 0.2)), ModeSpec(k=(1, 1), amplitude=(0.1, 0.1), solenoidal=False)],
        drift=VectorField.constant(g, (0.1, -0.05)),
    )
    d = make_increment(basis, 1e-3, np.random.default_rng(2))
    rng = np.random.default_rng(3)
    al, be = 1.7, -0.4
    if op == "oneform":
        v1 = VectorField(g, tuple(ScalarField(g, rng.standard_normal(g.shape)) for _ in range(2)))
        v2 = VectorField(g, tuple(ScalarField(g, rng.standard_normal(g.shape)) for _ in range(2)))
        combo = VectorField(g, tuple(al * a + be * b for a, b in
                                     zip(v1.components, v2.components)))
        lhs = perturb_1form(combo, d).realized
        r1 = perturb_1form(v1, d).realized
        r2 = perturb_1form(v2, d).realized
        for c, a, b in zip(lhs.components, r1.components, r2.components):
            assert np.allclose(c.values, al * a.values + be * b.values, atol=1e-13)
        return
    f1 = ScalarField(g, rng.standard_normal(g.shape))
    f2 = ScalarField(g, rng.standard_normal(g.shape))
    apply = {
        "nform_flux": lambda f: perturb_nform(f, d, NFormMode.FLUX),
        "nform_pointwise": lambda f: perturb_nform(f, d, NFormMode.POINTWISE),
        "nvector": lambda f: pushforward_nvector(f, d),
    }[op]
    lhs = apply(al * f1 + be * f2).realized.values
    rhs = al * apply(f1).realized.values + be * apply(f2).realized.values
    assert np.allclose(lhs, rhs, atol=1e-13)


@pytest.mark.parametrize("op", ["0form", "nform_flux", "nform_pointwise", "1form", "nvector", "volume"])
def test_parts_are_arrays_that_compose_the_realisation(op):
    # drift and noise are raw arrays of the grid shape (a list of dim arrays
    # per 1-form part); the realised field is drift*dt + noise, bit for bit,
    # and the noise is the sum over modes of each one-mode basis's noise
    g = grid2(32)
    two_wave = (
        fourier_mode_field(g, ModeSpec(k=(1, 1), amplitude=(0.08, 0.05), solenoidal=False), "sin")
        + fourier_mode_field(g, ModeSpec(k=(2, 0), amplitude=(0.03, 0.06), solenoidal=False), "cos")
    )
    shear = build_fourier_basis(g, [ModeSpec(k=(1, 0), amplitude=(0.0, 0.2))]).modes
    drift = VectorField(g, (smooth(g, lambda x, y: 0.1 * np.sin(y)), ScalarField.constant(g, -0.05)))
    basis = NoiseBasis(g, shear + (two_wave,), drift)
    d = make_increment(basis, 1e-3, np.random.default_rng(4))
    f = smooth(g, lambda x, y: 1.0 + 0.3 * np.sin(x) * np.cos(2 * y))
    v = VectorField(g, (f, smooth(g, lambda x, y: 0.5 * np.cos(x + y))))
    apply = {
        "0form": lambda d: perturb_0form(f, d),
        "nform_flux": lambda d: perturb_nform(f, d, NFormMode.FLUX),
        "nform_pointwise": lambda d: perturb_nform(f, d, NFormMode.POINTWISE),
        "1form": lambda d: perturb_1form(v, d),
        "nvector": lambda d: pushforward_nvector(f, d),
        "volume": lambda d: perturb_volume_multiplier(d),
    }[op]
    r = apply(d)
    one_mode = [apply(DiffeoIncrement(NoiseBasis(g, (e,), drift), BrownianIncrements(d.dt, [eta])))
                for e, eta in zip(basis.modes, d.increments.eta)]
    if op == "1form":
        assert isinstance(r.realized, VectorField)
        assert all(isinstance(part, list) and len(part) == g.dim for part in (r.drift, r.noise))
        per_component = [(r.drift[j], r.noise[j], r.realized.components[j], [o.noise[j] for o in one_mode])
                         for j in range(g.dim)]
    else:
        assert isinstance(r.realized, ScalarField)
        per_component = [(r.drift, r.noise, r.realized, [o.noise for o in one_mode])]
    for drift_j, noise_j, realized, per_mode in per_component:
        for part in (drift_j, noise_j):
            assert isinstance(part, np.ndarray) and part.shape == g.shape
        assert np.array_equal(realized.values, drift_j * d.dt + noise_j)
        assert np.abs(noise_j - sum(per_mode)).max() <= 1e-14 * np.abs(noise_j).max()


# --- volume multiplier ------------------------------------------------------

def test_volume_multiplier_solenoidal_constant_modes():
    g = grid2()
    d = constant_mode_increment(g, amp=(0.3, 0.4))
    r = perturb_volume_multiplier(d)
    assert np.all(r.realized.values == 0.0)


def test_volume_multiplier_divergent_drift():
    g = grid2()
    drift = VectorField(
        g,
        (smooth(g, lambda x, y: np.sin(x)), ScalarField.zeros(g)),
    )
    basis = NoiseBasis(g, (), drift)
    d = DiffeoIncrement(basis, BrownianIncrements(dt=1e-3, eta=np.zeros(0)))
    r = perturb_volume_multiplier(d)
    x, _ = g.coords()
    assert np.abs(r.drift - np.cos(x)).max() < 2 * g.spacing[0] ** 2


def test_volume_multiplier_lu_incompressible_basis_is_identity():
    # shear modes with the transport-noise drift: multiplier stays 1 exactly
    from stochmap.models import lu_basis

    g = grid2()
    basis = lu_basis(
        build_fourier_basis(
            g, [ModeSpec(k=(1, 0), amplitude=(0.0, 0.25)), ModeSpec(k=(0, 2), amplitude=(0.2, 0.0))]
        )
    )
    d = make_increment(basis, 1e-3, np.random.default_rng(2))
    r = perturb_volume_multiplier(d)
    assert np.abs(r.realized.values).max() < 1e-10


def mode_wedge(e: VectorField):
    """The Jacobian wedge J of one mode field, as a raw array."""
    return jacobian_wedge(*mode_gradient([c.values for c in e.components], e.grid))


def test_volume_jacobian_coefficient_mixed_shear():
    # e = (A sin y, B sin x): J = -2 A B cos x cos y (up to stencil factors)
    g = grid2()
    e = VectorField(
        g, (smooth(g, lambda x, y: 0.5 * np.sin(y)), smooth(g, lambda x, y: 0.3 * np.sin(x)))
    )
    got = mode_wedge(e)
    x, y = g.coords()
    expect = -2.0 * 0.5 * 0.3 * np.cos(x) * np.cos(y)
    assert np.abs(got - expect).max() < 5 * g.spacing[0] ** 2


# --- n-form -----------------------------------------------------------------

def test_nform_flux_integral_telescopes():
    g = grid2()
    rng = np.random.default_rng(3)
    basis = build_fourier_basis(
        g,
        [ModeSpec(k=(1, 0), amplitude=(0.0, 0.3)), ModeSpec(k=(1, 1), amplitude=(0.2, 0.2), solenoidal=False)],
        drift=VectorField.constant(g, (0.1, -0.2)),
    )
    f = ScalarField(g, 1.0 + 0.5 * rng.standard_normal(g.shape))
    for _ in range(5):
        d = make_increment(basis, 1e-3, rng)
        r = perturb_nform(f, d, NFormMode.FLUX)
        l1 = np.abs(f.values).mean() * g.volume
        assert abs(integrate(r.realized)) < 1e-12 * l1


def test_nform_constant_everything_is_zero():
    g = grid2()
    d = constant_mode_increment(g, amp=(0.5, 0.2))
    f = ScalarField.constant(g, 3.0)
    for mode in NFormMode:
        r = perturb_nform(f, d, mode)
        assert np.abs(r.realized.values).max() < 1e-15


def test_nform_pointwise_vs_flux_second_order_in_h():
    # needs a mode whose products genuinely exercise the discrete product
    # rule; pure shear modes make the two assemblies agree to round-off
    diffs = {}
    for n in (32, 64):
        g = grid2(n)
        basis = build_fourier_basis(
            g,
            [ModeSpec(k=(1, 1), amplitude=(0.3, 0.1), solenoidal=False)],
            drift=VectorField.constant(g, (0.1, 0.0)),
        )
        d = DiffeoIncrement(basis, BrownianIncrements(dt=1e-3, eta=np.array([0.01])))
        f = smooth(g, lambda x, y: 1.0 + 0.4 * np.sin(x) * np.cos(y) + 0.2 * np.cos(2 * y))
        a = perturb_nform(f, d, NFormMode.POINTWISE).realized.values
        b = perturb_nform(f, d, NFormMode.FLUX).realized.values
        diffs[n] = np.abs(a - b).max()
    assert 2.5 < diffs[32] / diffs[64] < 6.0  # O(h^2) between assemblies


# --- 1-form -----------------------------------------------------------------

def test_1form_constant_everything_is_zero():
    g = grid2()
    d = constant_mode_increment(g, amp=(0.4, 0.1))
    v = VectorField.constant(g, (1.0, -2.0))
    r = perturb_1form(v, d)
    for c in r.realized.components:
        assert np.abs(c.values).max() < 1e-15


def test_1form_gradient_coupling_term():
    # v = (1, 0), e = (sin y, 0), a = 0: only noise survives, component 2
    # picks up eta d_y(e^x) v^x = eta cos y
    g = grid2()
    e = VectorField(g, (smooth(g, lambda x, y: np.sin(y)), ScalarField.zeros(g)))
    basis = NoiseBasis(g, (e,), VectorField.zeros(g))
    eta = 0.01
    d = DiffeoIncrement(basis, BrownianIncrements(dt=1e-3, eta=np.array([eta])))
    v = VectorField.constant(g, (1.0, 0.0))
    r = perturb_1form(v, d)
    _, y = g.coords()
    assert np.abs(r.noise[1] - eta * np.cos(y)).max() < eta * g.spacing[1] ** 2
    assert np.abs(r.noise[0]).max() < eta * 1e-15
    assert np.abs(r.drift[0]).max() < 1e-15


def test_1form_requires_two_dimensions():
    g = Grid((16,), (TWO_PI,))
    basis = NoiseBasis(g, (), VectorField.zeros(g))
    d = DiffeoIncrement(basis, BrownianIncrements(dt=1e-3, eta=np.zeros(0)))
    with pytest.raises(ValueError):
        perturb_1form(VectorField.constant(g, (1.0,)), d)


def test_single_member_operators_reject_a_batched_increment():
    # the 1-form, the map and the remap oracle take one member at a time
    g = grid2(16)
    basis = build_fourier_basis(g, [ModeSpec(k=(1, 1), amplitude=(0.1, 0.05), solenoidal=False)])
    d = DiffeoIncrement(basis, BrownianIncrements(1e-3, np.full((2, 1), 0.01)))
    f = smooth(g, lambda x, y: 1.0 + 0.2 * np.sin(x))
    with pytest.raises(ValueError, match=r"perturb_1form takes one member; .* batched over \(2,\)"):
        perturb_1form(VectorField(g, (f, f)), d)
    with pytest.raises(ValueError, match="forward_map takes one member"):
        forward_map(d, g.points())
    with pytest.raises(ValueError, match="forward_map takes one member"):
        inverse_map(d, g.points())
    with pytest.raises(ValueError, match="oracle_remap takes one member"):
        oracle_remap(TensorClass.ZERO_FORM, f, d)
    with pytest.raises(ValueError, match="perturb_volume_multiplier takes one member"):
        perturb_volume_multiplier(d)
    one = DiffeoIncrement(basis, BrownianIncrements(1e-3, np.full(1, 0.01)))
    fs = ScalarField(g, np.stack([f.values, f.values]))
    with pytest.raises(ValueError, match=r"perturb_1form takes one member; got a field batched over \(2,\)"):
        perturb_1form(VectorField(g, (fs, fs)), one)


# --- n-vector ---------------------------------------------------------------

def test_nvector_constant_mode_signs():
    # constant e, a = 0: drift = (1/2) e e : grad grad g, noise = -eta e.grad g
    g = grid2()
    d = constant_mode_increment(g, amp=(1.0, 0.0))
    eta = float(d.increments.eta[0])
    f = smooth(g, lambda x, y: np.sin(x))
    r = pushforward_nvector(f, d)
    x, _ = g.coords()
    h = g.spacing[0]
    assert np.abs(r.drift + 0.5 * np.sin(x)).max() < h**2
    assert np.abs(r.noise + eta * np.cos(x)).max() < abs(eta) * h**2  # opposite sign to 0-form


def test_nvector_constant_field_keeps_wedge_term():
    # g constant, divergence-free e with J != 0: noise vanishes, drift = J/2 g
    g = grid2()
    e = VectorField(
        g, (smooth(g, lambda x, y: 0.4 * np.sin(y)), smooth(g, lambda x, y: 0.3 * np.sin(x)))
    )
    basis = NoiseBasis(g, (e,), VectorField.zeros(g), divergence_free=True)
    eta = 0.01
    d = DiffeoIncrement(basis, BrownianIncrements(dt=1e-3, eta=np.array([eta])))
    const = ScalarField.constant(g, 2.0)
    r = pushforward_nvector(const, d)
    assert np.abs(r.noise).max() < eta * 1e-15
    expect = 0.5 * mode_wedge(e) * 2.0
    assert np.allclose(r.drift, expect, atol=1e-14)


def test_nvector_constant_field_keeps_compressive_term():
    # g constant, e = (0.2 sin x, 0): J = 0, so the drift is all
    # -(e.grad)(div e) g = 0.04 sin^2 x g, the mean drift of det J_T o T^-1;
    # the noise is eta (div e) g = 0.4 eta cos x
    g = grid2()
    e = VectorField(g, (smooth(g, lambda x, y: 0.2 * np.sin(x)), ScalarField.zeros(g)))
    eta = 0.01
    d = DiffeoIncrement(NoiseBasis(g, (e,), VectorField.zeros(g)),
                        BrownianIncrements(dt=1e-3, eta=np.array([eta])))
    r = pushforward_nvector(ScalarField.constant(g, 2.0), d)
    x, _ = g.coords()
    h = g.spacing[0]
    assert np.abs(r.drift - 0.08 * np.sin(x) ** 2).max() < 0.1 * h**2
    assert np.abs(r.noise - eta * 0.4 * np.cos(x)).max() < eta * 0.1 * h**2


# --- mixed pair -------------------------------------------------------------

def test_mixed_pair_identity_increment():
    g = grid2(32)
    d = null_increment(g)
    f = smooth(g, lambda x, y: 1.0 + 0.3 * np.sin(x))
    q = smooth(g, lambda x, y: 1.0 + 0.2 * np.cos(y))
    rf, rg = perturb_mixed_pair(f, q, d)
    assert np.all(rf.realized.values == 0.0)
    assert np.all(rg.realized.values == 0.0)


def test_mixed_pair_grid_mismatch():
    d = null_increment(grid2(32))
    f = ScalarField.constant(grid2(32), 1.0)
    q = ScalarField.constant(grid2(16), 1.0)
    with pytest.raises(ValueError):
        perturb_mixed_pair(f, q, d)


def test_mixed_pair_nvector_rides_the_inverse():
    g = grid2()
    basis = build_fourier_basis(g, [ModeSpec(k=(1, 0), amplitude=(0.0, 0.3))])
    d = make_increment(basis, 1e-3, np.random.default_rng(4))
    q = smooth(g, lambda x, y: 1.0 + 0.2 * np.cos(y))
    _, rg = perturb_mixed_pair(ScalarField.constant(g, 1.0), q, d)
    direct = pushforward_nvector(q, inverse_increment(d))
    assert np.array_equal(rg.realized.values, direct.realized.values)


# --- oracle remap -----------------------------------------------------------

def test_oracle_identity_increment_returns_input():
    g = grid2(32)
    d = null_increment(g)
    rng = np.random.default_rng(5)
    f = ScalarField(g, 1.0 + 0.4 * rng.standard_normal(g.shape))
    for cls in (TensorClass.ZERO_FORM, TensorClass.N_FORM, TensorClass.N_VECTOR):
        out = oracle_remap(cls, f, d)
        assert np.allclose(out.values, f.values, atol=1e-12)
    v = VectorField(g, (f, ScalarField(g, rng.standard_normal(g.shape))))
    out = oracle_remap(TensorClass.ONE_FORM, v, d)
    for c_out, c_in in zip(out.components, v.components):
        assert np.allclose(c_out.values, c_in.values, atol=1e-12)
    det = oracle_remap(TensorClass.VOLUME_FORM, None, d)
    assert np.allclose(det.values, 1.0, atol=1e-14)


def test_oracle_translation_preserves_nform_integral():
    g = grid2()
    d = constant_mode_increment(g, amp=(1.0, 0.5), eta=0.03)
    f = smooth(g, lambda x, y: 1.0 + 0.5 * np.sin(x) * np.cos(y))
    det = oracle_remap(TensorClass.VOLUME_FORM, None, d)
    assert np.allclose(det.values, 1.0, atol=1e-14)  # translations are volume-preserving
    remapped = oracle_remap(TensorClass.N_FORM, f, d)
    assert abs(integrate(remapped) - integrate(f)) < 1e-7  # interpolation error only


@pytest.mark.parametrize(
    "cls", [TensorClass.ZERO_FORM, TensorClass.N_FORM, TensorClass.N_VECTOR]
)
def test_closed_forms_track_oracle_at_small_dt(cls):
    # one-realisation sanity check at fixed dt; systematic slopes live in the
    # acceptance suite
    g = grid2(96)
    basis = build_fourier_basis(g, [ModeSpec(k=(1, 0), amplitude=(0.0, 0.25))])
    dt = 1e-4
    d = DiffeoIncrement(basis, BrownianIncrements(dt=dt, eta=np.array([np.sqrt(dt)])))
    f = smooth(g, lambda x, y: 1.2 + 0.4 * np.sin(x) * np.cos(y) + 0.2 * np.cos(2 * y))
    if cls is TensorClass.ZERO_FORM:
        r = perturb_0form(f, d)
    elif cls is TensorClass.N_FORM:
        r = perturb_nform(f, d, NFormMode.FLUX)
    else:
        r = pushforward_nvector(f, d)
    remapped = oracle_remap(cls, f, d)
    mismatch = np.abs(r.realized.values - (remapped.values - f.values)).max()
    assert mismatch < 50 * dt  # increment itself is O(sqrt(dt)) ~ 1e-2
    assert mismatch < 0.05 * np.abs(r.realized.values).max()


def compressive_bases(g):
    """A drifting compressive plane wave, and a mode that sums two
    non-parallel waves so that its Jacobian wedge (zero for one plane wave)
    and its (e.grad)(div e) differ from a plane wave's."""
    drift = VectorField(g, (smooth(g, lambda x, y: 0.1 * np.sin(x)), ScalarField.zeros(g)))
    two_wave = (
        fourier_mode_field(g, ModeSpec(k=(1, 1), amplitude=(0.24, 0.15), solenoidal=False), "sin")
        + fourier_mode_field(g, ModeSpec(k=(2, 0), amplitude=(0.09, 0.18), solenoidal=False), "cos")
    )
    return (
        build_fourier_basis(g, [ModeSpec(k=(1, 1), amplitude=(0.2, 0.1), solenoidal=False)], drift=drift),
        NoiseBasis(g, (two_wave,), drift),
    )


def antithetic_mean(basis, dt, increment_of):
    """Mean of an increment over the pair eta = +-sqrt(dt), in which the
    eta-linear parts cancel, so it equals drift*dt up to O(dt^2)."""
    pair = (DiffeoIncrement(basis, BrownianIncrements(dt=dt, eta=np.array([s * np.sqrt(dt)])))
            for s in (1.0, -1.0))
    return sum(0.5 * increment_of(d) for d in pair)


def test_volume_multiplier_matches_determinant_oracle():
    # the two-wave mode's wedge moves the mean by about 12 times the bound
    g = grid2()
    dt = 1e-3
    for basis in compressive_bases(g):
        mean = antithetic_mean(basis, dt, lambda d: oracle_remap(TensorClass.VOLUME_FORM, None, d).values - 1.0)
        result = perturb_volume_multiplier(
            DiffeoIncrement(basis, BrownianIncrements(dt=dt, eta=np.array([0.0])))
        )
        assert np.abs(mean - result.drift * dt).max() < 5 * dt**2


def test_nvector_matches_remap_oracle():
    # without -(e.grad)(div e) g the gap is some 30 (plane wave) and 75
    # (two waves) times the bound; with the sign of (e.grad)e - e div e
    # flipped it is 15 times the bound on the two-wave mode
    g = grid2()
    dt = 1e-3
    f = smooth(g, lambda x, y: 1.2 + 0.4 * np.sin(x) * np.cos(y) + 0.2 * np.cos(2 * y))
    for basis in compressive_bases(g):
        mean = antithetic_mean(basis, dt, lambda d: oracle_remap(TensorClass.N_VECTOR, f, d).values - f.values)
        result = pushforward_nvector(f, DiffeoIncrement(basis, BrownianIncrements(dt=dt, eta=np.array([0.0]))))
        assert np.abs(mean - result.drift * dt).max() < 5 * dt**2


def test_1form_3d_oracle_consistency():
    g = Grid((48, 48, 48), (TWO_PI,) * 3)
    basis = build_fourier_basis(g, [ModeSpec(k=(1, 0, 0), amplitude=(0.0, 0.2, 0.0))])
    dt = 1e-4
    d = DiffeoIncrement(basis, BrownianIncrements(dt=dt, eta=np.array([np.sqrt(dt)])))
    u = VectorField(
        g,
        (
            smooth(g, lambda x, y, z: np.sin(z) + 0.3 * np.cos(y)),
            smooth(g, lambda x, y, z: np.sin(x)),
            smooth(g, lambda x, y, z: np.cos(x + y)),
        ),
    )
    r = perturb_1form(u, d)
    remapped = oracle_remap(TensorClass.ONE_FORM, u, d)
    for rr, oo, uu in zip(r.realized.components, remapped.components, u.components):
        assert np.abs(rr.values - (oo.values - uu.values)).max() < 50 * dt


def test_mixed_pair_pointwise_pairing_small_defect():
    g = grid2(96)
    basis = build_fourier_basis(g, [ModeSpec(k=(1, 0), amplitude=(0.0, 0.25))])
    dt = 1e-4
    d = DiffeoIncrement(basis, BrownianIncrements(dt=dt, eta=np.array([np.sqrt(dt)])))
    f = smooth(g, lambda x, y: 1.2 + 0.3 * np.sin(x) * np.cos(y))
    q = smooth(g, lambda x, y: 0.8 + 0.3 * np.cos(x + y))
    rf, rg = perturb_mixed_pair(f, q, d)
    fh = f + rf.realized
    gh = q + rg.realized
    paired = sample_at(fh * gh, inverse_map(d, g.points())).reshape(g.shape)
    defect = np.abs(paired - (f * q).values).max()
    assert defect < 50 * dt


@pytest.mark.parametrize("members", [None, 3])
def test_flux_nform_sums_in_place_have_the_bits_of_the_plain_expressions(members):
    # the drift d_p(b^p f + (1/2) A^{pq} d_q f) and the noise d_p(xi^p f), as
    # plain sums from 0 with a fresh array per operation
    g = Grid((16, 16), (2 * np.pi, 2 * np.pi))
    basis = build_fourier_basis(g, [ModeSpec(k=(1, 1), amplitude=(0.2, 0.1), solenoidal=False),
                                    ModeSpec(k=(0, 2), amplitude=(0.15, 0.0))])
    basis = basis.with_drift(ito_drift_correction(basis, 1.0))
    rng = np.random.default_rng(12)
    shape = g.shape if members is None else (members,) + g.shape
    eta = rng.normal(0.0, 0.03, size=basis.n_modes if members is None else (members, basis.n_modes))
    d = DiffeoIncrement(basis, BrownianIncrements(1e-3, eta))
    f = ScalarField(g, 1.0 + 0.3 * rng.random(shape))
    got = perturb_nform(f, d, NFormMode.FLUX)
    fv, xi = f.values, d.noise_displacement
    amat, b = basis.geometry.amat, basis.flux_velocity
    grads = [centered_difference(fv, p, g) for p in range(2)]
    drift = sum(centered_difference(b[p] * fv + 0.5 * sum((amat[p][q] * grads[q] for q in range(2)), 0), p, g)
                for p in range(2))
    noise = sum(centered_difference(xi[p] * fv, p, g) for p in range(2))
    assert got.drift.tobytes() == drift.tobytes()
    assert got.noise.tobytes() == noise.tobytes()
