import gc
import weakref
from pathlib import Path

import numpy as np
import pytest

from stochmap.calculus import sample_at
from stochmap.convergence import make_scene_2d, make_scene_3d
from stochmap.forms import perturb_0form, pushforward_nvector
from stochmap.grid import Grid, ScalarField, VectorField
from stochmap.noise import (
    BasisGeometry,
    BrownianIncrements,
    ModeSpec,
    NoiseBasis,
    build_fourier_basis,
    ito_drift_correction,
    sample_increments,
)
from stochmap.maps import (
    DiffeoIncrement,
    StepSizeError,
    _max_displacement,
    composition_residual,
    displacement_field,
    forward_map,
    inverse_increment,
    inverse_map,
    make_increment,
)

TWO_PI = 2.0 * np.pi


def coarse_grid():
    # big spacing so translation examples stay inside the displacement bound
    return Grid((8, 8), (TWO_PI, TWO_PI))


def null_increment(grid, dt=0.1):
    basis = NoiseBasis(grid, (), VectorField.zeros(grid))
    return DiffeoIncrement(basis, BrownianIncrements(dt=dt, eta=np.zeros(0)))


def test_identity_map():
    g = coarse_grid()
    d = null_increment(g)
    pts = g.points()
    assert np.array_equal(forward_map(d, pts), pts)
    assert composition_residual(d) == 0.0


def test_pure_drift_translation():
    g = coarse_grid()
    basis = NoiseBasis(g, (), VectorField.constant(g, (1.0, 0.0)))
    d = DiffeoIncrement(basis, BrownianIncrements(dt=0.1, eta=np.zeros(0)))
    pts = g.points()
    got = forward_map(d, pts)
    assert np.allclose(g.wrap_displacement(got - pts), [0.1, 0.0], atol=1e-13)


def test_pure_noise_translation():
    g = coarse_grid()
    basis = build_fourier_basis(g, [ModeSpec(k=(0, 0), amplitude=(1.0, 0.0))])
    d = DiffeoIncrement(basis, BrownianIncrements(dt=0.1, eta=np.array([0.05])))
    pts = g.points()
    got = forward_map(d, pts)
    assert np.allclose(g.wrap_displacement(got - pts), [0.05, 0.0], atol=1e-13)


def test_displacement_bound_enforced():
    g = Grid((64, 64), (TWO_PI, TWO_PI))
    basis = NoiseBasis(g, (), VectorField.constant(g, (1.0, 0.0)))
    with pytest.raises(StepSizeError):
        DiffeoIncrement(basis, BrownianIncrements(dt=0.1, eta=np.zeros(0)))
    # a larger safety factor admits the same displacement
    DiffeoIncrement(basis, BrownianIncrements(dt=0.04, eta=np.zeros(0)), safety=2.0)


def test_batched_guard_fails_iff_a_member_fails_and_names_it():
    # one compressive mode; members draw around the bound 0.5 * (2 pi / 32)
    g = Grid((32, 32), (TWO_PI, TWO_PI))
    basis = build_fourier_basis(g, [ModeSpec(k=(1, 1), amplitude=(1.0, 0.5), solenoidal=False)])
    rng = np.random.default_rng(11)
    failed = 0
    for _ in range(30):
        eta = rng.uniform(-0.12, 0.12, size=(3, 1))
        errors = []
        for member in eta:
            try:
                DiffeoIncrement(basis, BrownianIncrements(1e-3, member))
                errors.append(None)
            except StepSizeError as err:
                errors.append(str(err))
        first = next((k for k, e in enumerate(errors) if e is not None), None)
        if first is None:
            DiffeoIncrement(basis, BrownianIncrements(1e-3, eta))
            continue
        failed += 1
        with pytest.raises(StepSizeError) as batch_err:
            DiffeoIncrement(basis, BrownianIncrements(1e-3, eta))
        assert str(batch_err.value) == f"member {first}: {errors[first]}"
    assert 0 < failed < 30


def test_constant_mode_inverse_is_exact():
    g = coarse_grid()
    basis = build_fourier_basis(g, [ModeSpec(k=(0, 0), amplitude=(0.7, 0.3))])
    d = DiffeoIncrement(basis, BrownianIncrements(dt=0.01, eta=np.array([0.2])))
    assert composition_residual(d) < 1e-13
    pts = g.points()
    back = inverse_map(d, pts)
    assert np.allclose(g.wrap_displacement(back - pts),
                       [-0.2 * 0.7, -0.2 * 0.3], atol=1e-13)


def test_inverse_increment_coefficients():
    # drift of the inverse is the correction term minus the drift; each mode's
    # noise term flips: the same mode, driven by the negated draw
    g = Grid((48, 48), (TWO_PI, TWO_PI))
    drift = VectorField.constant(g, (0.2, -0.1))
    basis = build_fourier_basis(
        g,
        [ModeSpec(k=(1, 0), amplitude=(0.0, 0.3)), ModeSpec(k=(1, 1), amplitude=(0.2, 0.2), solenoidal=False)],
        drift=drift,
    )
    d = make_increment(basis, 1e-3, np.random.default_rng(0))
    eta = sample_increments(basis.n_modes, 1e-3, np.random.default_rng(0)).eta
    inv = inverse_increment(d)
    expect = ito_drift_correction(basis, 1.0) - drift
    for p in range(2):
        assert np.allclose(inv.basis.drift.components[p].values, expect.components[p].values, atol=1e-15)
        for e_inv, eta_inv, e, eta_i in zip(inv.basis.modes, inv.increments.eta, basis.modes, eta):
            assert np.array_equal(e_inv.components[p].values * eta_inv, -e.components[p].values * eta_i)
    assert np.array_equal(d.increments.eta, eta)


def test_inverse_shares_the_forward_modes_and_negates_xi():
    g = Grid((32, 32), (TWO_PI, TWO_PI))
    basis = build_fourier_basis(g, [ModeSpec(k=(1, 1), amplitude=(0.2, 0.1), solenoidal=False),
                                    ModeSpec(k=(2, 1), amplitude=(0.1, 0.0))])
    d = make_increment(basis, 1e-3, np.random.default_rng(5))
    assert all(e_inv is e for e_inv, e in zip(basis.inverse.modes, basis.modes))
    for xi_inv, xi in zip(inverse_increment(d).noise_displacement, d.noise_displacement):
        assert np.array_equal(xi_inv, -xi)


WEAK_STUDY_MODES = [ModeSpec(k=(0, 0), amplitude=(0.4, 0.0)), ModeSpec(k=(0, 0), amplitude=(0.0, 0.4))]


@pytest.mark.parametrize("modes", [WEAK_STUDY_MODES,
                                   [ModeSpec(k=(1, 2), amplitude=(0.2, 0.1), solenoidal=False),
                                    ModeSpec(k=(2, 0), amplitude=(0.0, 0.3))]])
def test_guard_of_a_drift_free_basis_squares_xi_and_leaves_it_unchanged(modes):
    # without drift the guard squares xi itself, not 0 dt + xi; the per-member
    # maxima are those of the sum, and the cached xi the operators read is intact
    g = Grid((32, 32), (TWO_PI, TWO_PI))
    basis = build_fourier_basis(g, modes)
    assert not basis.has_drift
    eta = np.random.default_rng(6).normal(0.0, 0.03, size=(4, basis.n_modes))
    d = DiffeoIncrement(basis, BrownianIncrements(2.5e-3, eta), safety=4.0)
    # summed from the first mode's product, so an exact zero keeps its sign
    xi = [c.values * eta[:, 0, None, None] for c in basis.modes[0].components]
    for i, e in enumerate(basis.modes[1:], 1):
        for p in range(2):
            xi[p] += e.components[p].values * eta[:, i, None, None]
    for got, want in zip(d.noise_displacement, xi):
        assert got.tobytes() == want.tobytes()
    sums = [c.values * d.dt + x for c, x in zip(basis.drift.components, xi)]
    worst = np.sqrt((sums[0] * sums[0] + sums[1] * sums[1]).max(axis=(-2, -1)))
    assert _max_displacement(d).tobytes() == worst.tobytes()


def test_the_inverse_reads_the_forward_xi_with_a_sign():
    # the inverse sums no modes: its guard subtracts the forward xi, its
    # n-vector noise flips its signs, and -xi is formed only when read
    g = Grid((32, 32), (TWO_PI, TWO_PI))
    basis = build_fourier_basis(g, [ModeSpec(k=(1, 1), amplitude=(0.2, 0.1), solenoidal=False),
                                    ModeSpec(k=(2, 1), amplitude=(0.1, 0.0))])
    basis = basis.with_drift(ito_drift_correction(basis, 1.0))
    d = make_increment(basis, 1e-3, np.random.default_rng(5))
    inv = inverse_increment(d)
    xi, sign = inv.signed_noise
    assert xi is d.noise_displacement and sign == -1
    f = ScalarField(g, 1.0 + 0.3 * np.sin(g.coords()[0]))
    got = pushforward_nvector(f, inv)
    assert "noise_displacement" not in inv.__dict__
    summed = DiffeoIncrement(basis.inverse, BrownianIncrements(d.dt, -d.increments.eta))
    want = pushforward_nvector(f, summed)
    assert np.array_equal(got.increment, want.increment)
    # the 0-form's noise is xi.grad f, negated when read with the sign
    got, want = perturb_0form(f, inv), perturb_0form(f, summed)
    assert np.array_equal(got.increment, want.increment) and np.array_equal(got.noise, want.noise)
    assert _max_displacement(inv).tobytes() == _max_displacement(summed).tobytes()


def test_batched_inverse_guard_names_its_member_first():
    # members 0 and 2 pass both guards; member 1 fails only the inverse's
    g = Grid((32, 32), (TWO_PI, TWO_PI))
    basis = build_fourier_basis(g, [ModeSpec(k=(1, 0), amplitude=(0.3, 0.0), solenoidal=False)])
    eta = np.array([[0.0005], [0.005], [-0.0008]])
    d = DiffeoIncrement(basis, BrownianIncrements(dt=5e-2, eta=eta), safety=0.025)
    with pytest.raises(StepSizeError) as single:
        inverse_increment(DiffeoIncrement(basis, BrownianIncrements(dt=5e-2, eta=eta[1]), safety=0.025))
    with pytest.raises(StepSizeError) as batched:
        inverse_increment(d)
    assert str(single.value).startswith("inverse map: max displacement")
    assert str(batched.value) == f"member 1: {single.value}"
    assert batched.value.member == 1


def test_inverse_guard_failure_names_the_inverse_map():
    # forward max displacement 0.0015, inverse 0.0033 (its drift is
    # (e.grad)e), against a bound of 0.5 * (2 pi / 32) * 0.025 = 0.00245
    g = Grid((32, 32), (TWO_PI, TWO_PI))
    basis = build_fourier_basis(g, [ModeSpec(k=(1, 0), amplitude=(0.3, 0.0), solenoidal=False)])
    d = DiffeoIncrement(basis, BrownianIncrements(dt=5e-2, eta=np.array([0.005])), safety=0.025)
    assert displacement_field(d).max_norm() < 0.0016
    with pytest.raises(StepSizeError, match=r"^inverse map: max displacement 3\.31\de-03 exceeds 2\.45\de-03"):
        inverse_increment(d)


def test_inverse_basis_is_built_once_per_basis():
    g = Grid((32, 32), (TWO_PI, TWO_PI))
    basis = build_fourier_basis(g, [ModeSpec(k=(1, 1), amplitude=(0.2, 0.1), solenoidal=False)])
    rng = np.random.default_rng(2)
    first = inverse_increment(make_increment(basis, 1e-3, rng))
    second = inverse_increment(make_increment(basis, 1e-3, rng))
    assert first.basis is basis.inverse
    assert second.basis is basis.inverse


def test_geometry_is_built_once_per_set_of_modes():
    # the inverse basis and a basis with another drift share the forward
    # basis's geometry; every sum over modes is even in e, so negated modes
    # would give the same sums
    g = Grid((32, 32), (TWO_PI, TWO_PI))
    basis = build_fourier_basis(g, [ModeSpec(k=(1, 1), amplitude=(0.2, 0.1), solenoidal=False),
                                    ModeSpec(k=(2, 1), amplitude=(0.1, 0.0))])
    assert basis.inverse.geometry is basis.geometry
    assert basis.with_drift(VectorField.constant(g, (0.1, 0.0))).geometry is basis.geometry
    flipped = BasisGeometry.of(g, tuple(e * -1.0 for e in basis.modes))
    for name in ("wedge", "e_div_e", "self_adv", "e_grad_div", "amat"):
        assert np.array_equal(getattr(flipped, name), getattr(basis.geometry, name))


def test_double_inverse_restores_coefficients():
    g = Grid((48, 48), (TWO_PI, TWO_PI))
    basis = build_fourier_basis(
        g, [ModeSpec(k=(2, 1), amplitude=(0.3, 0.1), solenoidal=False)],
        drift=VectorField.constant(g, (0.05, 0.02)),
    )
    d = make_increment(basis, 1e-3, np.random.default_rng(1))
    dd = inverse_increment(inverse_increment(d))
    assert basis.inverse.inverse is basis
    assert dd.basis is d.basis
    assert np.array_equal(dd.increments.eta, d.increments.eta)
    for p in range(2):
        assert np.array_equal(dd.basis.drift.components[p].values, d.basis.drift.components[p].values)


def test_basis_and_its_inverse_form_no_reference_cycle():
    # a cycle would keep both bases and their tables alive until a full
    # garbage collection, which repeated runs in one process never wait for
    g = Grid((16, 16), (TWO_PI, TWO_PI))
    basis = build_fourier_basis(g, [ModeSpec(k=(1, 1), amplitude=(0.2, 0.1), solenoidal=False)])
    assert basis.inverse.inverse is basis
    inverse = weakref.ref(basis.inverse)
    gc.disable()
    try:
        del basis
        assert inverse() is None
    finally:
        gc.enable()


def test_nvector_rows_leave_the_inverse_without_a_volume_drift():
    # a TSW step reads the inverse basis's n-vector rows only; building them
    # must not cache the volume drift there, and c0 keeps its bits
    from stochmap.config import load_config
    from stochmap.models import tsw_spde_step
    from stochmap.runner_support import build_basis, tsw_initial_state, tsw_params

    config = load_config(Path(__file__).resolve().parent.parent / "configs" / "tsw.cfg")
    grid = config.make_grid()
    basis = build_basis(grid, config)
    state = tsw_initial_state(grid, config, np.random.default_rng(config.seed + 1000))
    rng = np.random.default_rng(config.seed)
    for _ in range(3):
        state = tsw_spde_step(state, tsw_params(config), basis, config.dt, rng, safety=config.safety)
    assert "nvector_rows" in basis.inverse.__dict__
    assert "volume_drift" not in basis.inverse.__dict__
    twin = basis.inverse.with_drift(basis.inverse.drift)
    assert np.array_equal(twin.volume_drift - twin.geometry.e_grad_div, basis.inverse.nvector_rows[0])
    assert np.array_equal(twin.nvector_rows[0], basis.inverse.nvector_rows[0])


def test_composition_residual_positive_for_varying_modes():
    g = Grid((64, 64), (TWO_PI, TWO_PI))
    basis = build_fourier_basis(g, [ModeSpec(k=(1, 0), amplitude=(0.3, 0.0), solenoidal=False)])
    d = DiffeoIncrement(basis, BrownianIncrements(dt=1e-3, eta=np.array([0.02])))
    r = composition_residual(d)
    assert 0.0 < r < 1e-3


def test_forward_map_wraps_into_domain():
    g = coarse_grid()
    basis = NoiseBasis(g, (), VectorField.constant(g, (1.0, 1.0)))
    d = DiffeoIncrement(basis, BrownianIncrements(dt=0.3, eta=np.zeros(0)), safety=2.0)
    got = forward_map(d, g.points())
    assert np.all(got >= 0.0)
    assert np.all(got < TWO_PI)


def test_wrap_maps_tiny_negative_coordinates_to_zero():
    # np.mod(-1e-17, L) rounds to L itself; the domain is [0, L) on every axis
    for g in (Grid((64, 64), (TWO_PI, TWO_PI)), Grid((8, 6, 5), (1.0, 2.5, 0.7)), Grid((16,), (3.0,))):
        ell = np.asarray(g.extents)
        assert np.all(np.mod(np.full(g.dim, -1e-17), ell) == ell)
        tiny = np.array([[-1e-17] * g.dim, [-1e-300] * g.dim, [-5e-324] * g.dim])
        assert np.array_equal(g.wrap(tiny), np.zeros((3, g.dim)))
        mixed = np.array([[-1e-17] + [0.5] * (g.dim - 1), [-0.25] * g.dim])
        assert np.array_equal(g.wrap(mixed), np.array([[0.0] + [0.5] * (g.dim - 1), list(ell - 0.25)]))


def _scene_increment(scene, seed=3):
    rng = np.random.default_rng(seed)
    n_modes = scene.basis.n_modes
    return DiffeoIncrement(scene.basis, BrownianIncrements(dt=1e-3, eta=np.sqrt(1e-3) * rng.standard_normal(n_modes)))


@pytest.mark.parametrize("scene", [make_scene_2d(64), make_scene_3d(16)], ids=["2d", "3d"])
def test_node_map_is_the_node_displacement(scene):
    # without points, T at the nodes is the nodes plus the node displacement,
    # with no interpolation; interpolating at the node coordinates agrees to
    # round-off; the same for T^-1
    g = scene.grid
    d = _scene_increment(scene)
    for mapped, node_inc in ((forward_map, d), (inverse_map, inverse_increment(d))):
        disp = np.stack([c.values.reshape(-1) for c in displacement_field(node_inc).components], axis=-1)
        got = mapped(d)
        assert np.array_equal(got, g.wrap(g.points() + disp))
        assert np.abs(g.wrap_displacement(got - mapped(d, g.points()))).max() < 1e-12
        assert np.all((got >= 0.0) & (got < np.asarray(g.extents)))


def test_node_map_stays_below_the_extent():
    # a node at 0 displaced by a tiny negative amount wraps to 0.0, not to L
    g = coarse_grid()
    basis = NoiseBasis(g, (), VectorField.constant(g, (-1e-16, -1e-16)))
    d = DiffeoIncrement(basis, BrownianIncrements(dt=0.1, eta=np.zeros(0)))
    got = forward_map(d)
    assert np.all((got >= 0.0) & (got < TWO_PI))
    assert np.array_equal(got[0], [0.0, 0.0])


@pytest.mark.parametrize("scene", [make_scene_2d(32), make_scene_2d(64), make_scene_3d(16)],
                         ids=["2d-32", "2d-64", "3d"])
def test_composition_residual_at_nodes_matches_the_interpolated_inner_map(scene):
    # the inner map read at the nodes moves the residual by round-off only,
    # against the inner map interpolated at the node coordinates
    g = scene.grid
    d = _scene_increment(scene)
    pts = g.points()
    interpolated = np.sqrt(np.mean(np.sum(g.wrap_displacement(forward_map(d, inverse_map(d, pts)) - pts) ** 2,
                                          axis=-1)))
    assert abs(composition_residual(d) - interpolated) < 1e-12


@pytest.mark.parametrize("scene", [make_scene_2d(32), make_scene_3d(16)], ids=["2d", "3d"])
def test_forward_map_off_nodes_is_the_interpolated_map(scene):
    # the one interpolated node displacement equals T with every coefficient
    # field interpolated on its own (interpolation is linear in node values)
    g, basis = scene.grid, scene.basis
    rng = np.random.default_rng(3)
    d = DiffeoIncrement(basis, BrownianIncrements(dt=1e-3, eta=np.sqrt(1e-3) * rng.standard_normal(basis.n_modes)))
    pts = rng.uniform(0.0, 1.0, (500, g.dim)) * np.asarray(g.extents)
    expect = pts + d.dt * sample_at(basis.drift, pts)
    for e, eta in zip(basis.modes, d.increments.eta):
        expect = expect + eta * sample_at(e, pts)
    got = forward_map(d, pts)
    assert np.all((got >= 0.0) & (got < np.asarray(g.extents)))
    assert np.abs(g.wrap_displacement(got - expect)).max() < 1e-14


def test_mode_increment_count_must_match():
    g = coarse_grid()
    basis = build_fourier_basis(g, [ModeSpec(k=(0, 0), amplitude=(0.1, 0.0))])
    with pytest.raises(ValueError):
        DiffeoIncrement(basis, BrownianIncrements(dt=0.1, eta=np.zeros(3)))


def test_displacement_field_matches_definition():
    g = coarse_grid()
    basis = build_fourier_basis(
        g, [ModeSpec(k=(1, 0), amplitude=(0.0, 0.2))], drift=VectorField.constant(g, (0.1, 0.0))
    )
    d = DiffeoIncrement(basis, BrownianIncrements(dt=0.05, eta=np.array([0.1])))
    disp = displacement_field(d)
    expect0 = 0.1 * 0.05
    expect1 = 0.1 * basis.modes[0].components[1].values
    assert np.allclose(disp.components[0].values, expect0, atol=1e-15)
    assert np.allclose(disp.components[1].values, expect1, atol=1e-15)

