import gc
import weakref

import numpy as np
import pytest

from stochmap.calculus import sample_vector_at
from stochmap.convergence import make_scene_2d, make_scene_3d
from stochmap.grid import Grid, VectorField
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


@pytest.mark.parametrize("scene", [make_scene_2d(32), make_scene_3d(16)], ids=["2d", "3d"])
def test_forward_map_off_nodes_is_the_interpolated_map(scene):
    # the one interpolated node displacement equals T with every coefficient
    # field interpolated on its own (interpolation is linear in node values)
    g, basis = scene.grid, scene.basis
    rng = np.random.default_rng(3)
    d = DiffeoIncrement(basis, BrownianIncrements(dt=1e-3, eta=np.sqrt(1e-3) * rng.standard_normal(basis.n_modes)))
    pts = rng.uniform(0.0, 1.0, (500, g.dim)) * np.asarray(g.extents)
    expect = pts + d.dt * sample_vector_at(basis.drift, pts)
    for e, eta in zip(basis.modes, d.increments.eta):
        expect = expect + eta * sample_vector_at(e, pts)
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

