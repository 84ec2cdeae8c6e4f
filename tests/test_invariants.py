import numpy as np
import pytest

from stochmap.grid import Grid, ScalarField, VectorField, stack_members
from stochmap.calculus import integrate
from stochmap.noise import BrownianIncrements, ModeSpec, NoiseBasis, build_fourier_basis
from stochmap.forms import perturb_1form
from stochmap.maps import DiffeoIncrement
from stochmap.models import TSWState
from stochmap.invariants import (
    DiagnosticSeries,
    helicity,
    pairing_integral,
    product_integral,
    tsw_invariants,
    vorticity_commutation_defect,
)

TWO_PI = 2.0 * np.pi


def grid2(n=64):
    return Grid((n, n), (TWO_PI, TWO_PI))


def test_total_integral_of_one_is_volume():
    g = Grid((16, 16), (1.0, 1.0))
    assert integrate(ScalarField.constant(g, 1.0)) == pytest.approx(1.0, abs=1e-14)


def test_pointwise_nform_total_integral_drifts_above_first_order():
    # flux form conserves the integral exactly; the pointwise assembly only
    # conserves it at order > 1 per step (measured with the symmetric-pair
    # mean over co-refined grids, like the acceptance studies)
    from stochmap.forms import NFormMode, perturb_nform
    from stochmap.convergence import fit_loglog_slope

    dts = [1e-2, 5e-3, 2.5e-3]
    ns = [32, 46, 64]
    vals = []
    for n, dt in zip(ns, dts):
        g = Grid((n, n), (TWO_PI, TWO_PI))
        f = ScalarField.from_function(g, lambda x, y: 1.0 + 0.4 * np.sin(x) * np.cos(y))
        basis = build_fourier_basis(
            g, [ModeSpec(k=(1, 1), amplitude=(0.25, 0.1), solenoidal=False)]
        )
        acc = 0.0
        for sign in (1.0, -1.0):
            d = DiffeoIncrement(basis, BrownianIncrements(dt=dt, eta=np.array([sign * np.sqrt(dt)])))
            acc += 0.5 * integrate(perturb_nform(f, d, NFormMode.POINTWISE).realized)
        vals.append(abs(acc))
    assert fit_loglog_slope(dts, vals) >= 1.4


def test_product_integral_power_zero_is_total():
    rng = np.random.default_rng(0)
    g = grid2(16)
    f = ScalarField(g, rng.standard_normal(g.shape))
    q = ScalarField(g, rng.standard_normal(g.shape))
    assert product_integral(f, q, 0) == pytest.approx(integrate(f), rel=1e-14)


def test_product_integral_constant_factor():
    rng = np.random.default_rng(1)
    g = grid2(16)
    f = ScalarField(g, rng.standard_normal(g.shape))
    c = 2.75
    got = product_integral(f, ScalarField.constant(g, c), 1)
    assert got == pytest.approx(c * integrate(f), rel=1e-12)


def test_product_integral_validation():
    f = ScalarField.constant(grid2(16), 1.0)
    q16 = ScalarField.constant(grid2(16), 1.0)
    q8 = ScalarField.constant(grid2(8), 1.0)
    with pytest.raises(ValueError):
        product_integral(f, q8, 1)
    with pytest.raises(ValueError):
        product_integral(f, q16, -1)


def test_pairing_integral_special_cases():
    rng = np.random.default_rng(2)
    g = grid2(16)
    f = ScalarField(g, rng.standard_normal(g.shape))
    q = ScalarField(g, rng.standard_normal(g.shape))
    assert pairing_integral(f, ScalarField.constant(g, 1.0)) == pytest.approx(
        integrate(f * f), rel=1e-12
    )
    c = -1.3
    assert pairing_integral(ScalarField.constant(g, c), q) == pytest.approx(
        c * c * integrate(q), rel=1e-12
    )


# --- vorticity commutation ----------------------------------------------------

def test_vorticity_commutation_identity_increment():
    g = grid2(32)
    basis = NoiseBasis(g, (), VectorField.zeros(g))
    d = DiffeoIncrement(basis, BrownianIncrements(dt=1e-3, eta=np.zeros(0)))
    u = VectorField(
        g,
        (
            ScalarField.from_function(g, lambda x, y: np.sin(y)),
            ScalarField.from_function(g, lambda x, y: np.cos(x)),
        ),
    )
    assert np.sqrt(np.mean(vorticity_commutation_defect(u, d) ** 2)) == 0.0


def test_vorticity_commutation_constants_exact():
    g = grid2(32)
    basis = build_fourier_basis(g, [ModeSpec(k=(0, 0), amplitude=(0.4, 0.3))])
    d = DiffeoIncrement(basis, BrownianIncrements(dt=1e-3, eta=np.array([0.02])))
    u = VectorField.constant(g, (1.0, -0.5))
    assert np.sqrt(np.mean(vorticity_commutation_defect(u, d) ** 2)) < 1e-15


def test_vorticity_commutation_dim_check():
    g = Grid((8, 8, 8), (TWO_PI,) * 3)
    basis = NoiseBasis(g, (), VectorField.zeros(g))
    d = DiffeoIncrement(basis, BrownianIncrements(dt=1e-3, eta=np.zeros(0)))
    with pytest.raises(ValueError):
        vorticity_commutation_defect(VectorField.zeros(g), d)


# --- helicity -----------------------------------------------------------------

def test_helicity_of_constant_field_is_zero():
    g = Grid((12, 12, 12), (TWO_PI,) * 3)
    assert helicity(VectorField.constant(g, (1.0, 2.0, 3.0))) == pytest.approx(0.0, abs=1e-12)


def test_helicity_beltrami_analytic():
    # u = (A sin z + C cos y, B sin x + A cos z, C sin y + B cos x) satisfies
    # curl u = u, so the helicity integral is (2 pi)^3 (A^2 + B^2 + C^2)
    A, B, C = 1.0, 0.7, 0.5
    exact = (2 * np.pi) ** 3 * (A * A + B * B + C * C)
    rel = {}
    for n in (24, 48):
        g = Grid((n, n, n), (TWO_PI,) * 3)
        u = VectorField(
            g,
            (
                ScalarField.from_function(g, lambda x, y, z: A * np.sin(z) + C * np.cos(y)),
                ScalarField.from_function(g, lambda x, y, z: B * np.sin(x) + A * np.cos(z)),
                ScalarField.from_function(g, lambda x, y, z: C * np.sin(y) + B * np.cos(x)),
            ),
        )
        rel[n] = abs(helicity(u) - exact) / exact
    assert rel[48] < 4e-3       # measured 2.85e-3
    assert rel[24] / rel[48] > 3  # second order in h


def test_helicity_requires_3d():
    with pytest.raises(ValueError):
        helicity(VectorField.zeros(grid2(8)))


def test_helicity_drift_zero_for_identity():
    g = Grid((12, 12, 12), (TWO_PI,) * 3)
    basis = NoiseBasis(g, (), VectorField.zeros(g))
    d = DiffeoIncrement(basis, BrownianIncrements(dt=1e-3, eta=np.zeros(0)))
    u = VectorField(
        g,
        (
            ScalarField.from_function(g, lambda x, y, z: np.sin(z)),
            ScalarField.from_function(g, lambda x, y, z: np.sin(x)),
            ScalarField.from_function(g, lambda x, y, z: np.sin(y)),
        ),
    )
    assert abs(helicity(u + perturb_1form(u, d).realized) - helicity(u)) == 0.0


# --- shallow water invariants ---------------------------------------------------

def test_tsw_invariants_uniform_state():
    g = Grid((32, 32), (1.0, 1.0))
    theta0 = 1.7
    state = TSWState(
        ScalarField.constant(g, 1.0),
        ScalarField.constant(g, theta0),
        VectorField.zeros(g),
    )
    energy, mass, momentum = tsw_invariants(state)
    assert energy == pytest.approx(0.5 * theta0, rel=1e-12)
    assert mass == pytest.approx(1.0, rel=1e-12)
    assert momentum[0] == pytest.approx(0.0, abs=1e-14)
    assert momentum[1] == pytest.approx(0.0, abs=1e-14)


def test_tsw_mass_scales_linearly():
    rng = np.random.default_rng(3)
    g = grid2(16)
    h = ScalarField(g, 1.0 + 0.2 * rng.standard_normal(g.shape))
    theta = ScalarField.constant(g, 1.0)
    u = VectorField.zeros(g)
    lam = 2.5
    _, mass1, _ = tsw_invariants(TSWState(h, theta, u))
    _, mass2, _ = tsw_invariants(TSWState(lam * h, theta, u))
    assert mass2 == pytest.approx(lam * mass1, rel=1e-14)


# --- diagnostic series -----------------------------------------------------------

def test_diagnostic_series_requires_increasing_times():
    s = DiagnosticSeries("mass")
    s.append(0.0, 1.0)
    s.append(0.5, 2.0)
    with pytest.raises(ValueError):
        s.append(0.5, 3.0)


def test_diagnostic_series_csv_layout():
    s = DiagnosticSeries("energy")
    s.append(0.0, 1.5)
    s.append(0.1, 1.25)
    lines = s.to_csv().splitlines()
    assert lines[0] == "time,energy"
    assert lines[1] == "0.0,1.5"
    assert len(lines) == 3


def test_tsw_invariants_of_a_batch_are_each_members_own():
    # each member's integrals are sums over its own contiguous view: the bits
    # of its own call
    g = Grid((16, 12), (2.0, 3.0))
    rng = np.random.default_rng(30)
    members = [TSWState(ScalarField(g, 1.0 + rng.random(g.shape)), ScalarField(g, 1.0 + rng.random(g.shape)),
                        VectorField.from_arrays(g, [rng.normal(size=g.shape) for _ in range(2)]))
               for _ in range(3)]
    batch = TSWState(*(stack_members(list(fields)) for fields in zip(*((s.h, s.theta, s.u) for s in members))))
    assert tsw_invariants(batch) == [tsw_invariants(s) for s in members]
