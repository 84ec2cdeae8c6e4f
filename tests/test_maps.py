import numpy as np
import pytest

from stochmap.grid import Grid, VectorField
from stochmap.noise import (
    BasisGeometry,
    BrownianIncrements,
    ModeSpec,
    NoiseBasis,
    build_fourier_basis,
    ito_drift_correction,
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
    # drift of the inverse is the correction term minus the drift; modes flip
    g = Grid((48, 48), (TWO_PI, TWO_PI))
    drift = VectorField.constant(g, (0.2, -0.1))
    basis = build_fourier_basis(
        g,
        [ModeSpec(k=(1, 0), amplitude=(0.0, 0.3)), ModeSpec(k=(1, 1), amplitude=(0.2, 0.2), solenoidal=False)],
        drift=drift,
    )
    d = make_increment(basis, 1e-3, np.random.default_rng(0))
    inv = inverse_increment(d)
    expect = ito_drift_correction(basis, 1.0) - drift
    for p in range(2):
        assert np.allclose(inv.basis.drift.components[p].values, expect.components[p].values, atol=1e-15)
        for e_inv, e in zip(inv.basis.modes, basis.modes):
            assert np.array_equal(e_inv.components[p].values, -e.components[p].values)
    assert np.array_equal(inv.increments.eta, d.increments.eta)


def test_inverse_basis_is_built_once_per_basis():
    g = Grid((32, 32), (TWO_PI, TWO_PI))
    basis = build_fourier_basis(g, [ModeSpec(k=(1, 1), amplitude=(0.2, 0.1), solenoidal=False)])
    rng = np.random.default_rng(2)
    first = inverse_increment(make_increment(basis, 1e-3, rng))
    second = inverse_increment(make_increment(basis, 1e-3, rng))
    assert first.basis is basis.inverse
    assert second.basis is basis.inverse


def test_geometry_is_built_once_per_set_of_modes():
    # every sum over modes is even in e, so the inverse basis (modes -e_i) and
    # a basis with another drift share the forward basis's geometry
    g = Grid((32, 32), (TWO_PI, TWO_PI))
    basis = build_fourier_basis(g, [ModeSpec(k=(1, 1), amplitude=(0.2, 0.1), solenoidal=False),
                                    ModeSpec(k=(2, 1), amplitude=(0.1, 0.0))])
    assert basis.inverse.geometry is basis.geometry
    assert basis.with_drift(VectorField.constant(g, (0.1, 0.0))).geometry is basis.geometry
    flipped = BasisGeometry.of(g, basis.inverse.modes)
    for name in ("wedge", "e_div_e", "self_adv", "amat"):
        assert np.array_equal(getattr(flipped, name), getattr(basis.geometry, name))


def test_double_inverse_restores_coefficients():
    g = Grid((48, 48), (TWO_PI, TWO_PI))
    basis = build_fourier_basis(
        g, [ModeSpec(k=(2, 1), amplitude=(0.3, 0.1), solenoidal=False)],
        drift=VectorField.constant(g, (0.05, 0.02)),
    )
    d = make_increment(basis, 1e-3, np.random.default_rng(1))
    dd = inverse_increment(inverse_increment(d))
    for p in range(2):
        assert np.allclose(dd.basis.drift.components[p].values,
                           d.basis.drift.components[p].values, atol=1e-15)
        for e2, e in zip(dd.basis.modes, d.basis.modes):
            assert np.array_equal(e2.components[p].values, e.components[p].values)


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

