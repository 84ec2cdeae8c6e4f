import numpy as np
import pytest

from stochmap.grid import Grid, ScalarField, VectorField
from stochmap.calculus import derivative, divergence
from stochmap.noise import (
    BrownianIncrements,
    ModeSpec,
    NoiseBasis,
    build_fourier_basis,
    fourier_mode_field,
    ito_drift_correction,
    sample_increments,
)

TWO_PI = 2.0 * np.pi


def grid2(n=64):
    return Grid((n, n), (TWO_PI, TWO_PI))


def test_zero_wavevector_gives_constant_mode():
    basis = build_fourier_basis(grid2(), [ModeSpec(k=(0, 0), amplitude=(1.0, 0.0))])
    e = basis.modes[0]
    assert np.all(e.components[0].values == 1.0)
    assert np.all(e.components[1].values == 0.0)
    assert np.abs(divergence(e).values).max() == 0.0


def test_axis_aligned_solenoidal_mode_is_shear():
    basis = build_fourier_basis(grid2(), [ModeSpec(k=(3, 0), amplitude=(0.4, 0.7))])
    e = basis.modes[0]
    # projection removes the component along the wavevector
    assert np.abs(e.components[0].values).max() < 1e-15
    assert np.abs(divergence(e).values).max() < 1e-13


@pytest.mark.parametrize("k", [(1, 0), (0, 2), (1, 1), (2, 1), (1, -2)])
def test_solenoidal_modes_have_roundoff_divergence(k):
    basis = build_fourier_basis(grid2(), [ModeSpec(k=k, amplitude=(0.8, 0.5))])
    for e in basis.modes:
        assert np.abs(divergence(e).values).max() < 1e-12
    assert basis.divergence_free


def test_both_waves_yield_two_modes():
    basis = build_fourier_basis(grid2(), [ModeSpec(k=(1, 0), amplitude=(0.0, 1.0), wave="both")])
    assert basis.n_modes == 2


def test_non_integer_wavevector_rejected():
    with pytest.raises(ValueError):
        ModeSpec(k=(1.5, 0), amplitude=(1.0, 0.0))


def test_amplitude_parallel_to_wavevector_rejected():
    with pytest.raises(ValueError):
        build_fourier_basis(grid2(), [ModeSpec(k=(2, 0), amplitude=(1.0, 0.0), solenoidal=True)])


def test_divergence_free_claim_is_validated():
    g = grid2()
    compressive = build_fourier_basis(
        g, [ModeSpec(k=(1, 0), amplitude=(0.5, 0.0), solenoidal=False)]
    ).modes[0]
    with pytest.raises(ValueError):
        NoiseBasis(g, (compressive,), VectorField.zeros(g), divergence_free=True)


def test_is_null_and_has_drift():
    g = grid2(16)
    assert NoiseBasis(g, (), VectorField.zeros(g)).is_null
    assert not NoiseBasis(g, (), VectorField.constant(g, (0.1, 0.0))).is_null


# --- Brownian increments ----------------------------------------------------

def test_sample_increments_deterministic_given_state():
    a = sample_increments(4, 0.01, np.random.default_rng(123))
    b = sample_increments(4, 0.01, np.random.default_rng(123))
    assert np.array_equal(a.eta, b.eta)


def test_sample_increments_variance():
    rng = np.random.default_rng(7)
    dt = 0.01
    draws = np.array([sample_increments(1, dt, rng).eta[0] for _ in range(100_000)])
    assert abs(draws.var() - dt) / dt < 0.05


def test_nonpositive_dt_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_increments(2, 0.0, rng)
    with pytest.raises(ValueError):
        BrownianIncrements(dt=-1.0, eta=np.zeros(2))


# --- drift correction -------------------------------------------------------

def test_drift_correction_vanishes_for_constant_modes():
    basis = build_fourier_basis(grid2(), [ModeSpec(k=(0, 0), amplitude=(1.0, 2.0))])
    a = ito_drift_correction(basis, 1.0)
    assert a.max_norm() == 0.0


def test_drift_correction_single_mode_analytic():
    # e = (sin x, 0): (e.grad)e = (sin x cos x, 0) up to the stencil factor
    g = grid2(64)
    basis = build_fourier_basis(g, [ModeSpec(k=(1, 0), amplitude=(1.0, 0.0), solenoidal=False)])
    a = ito_drift_correction(basis, 1.0)
    x, _ = g.coords()
    err = np.abs(a.components[0].values - np.sin(x) * np.cos(x)).max()
    assert err < 2 * g.spacing[0] ** 2
    assert np.abs(a.components[1].values).max() == 0.0


def test_drift_correction_two_modes_matches_loop_oracle():
    g = grid2(32)
    basis = build_fourier_basis(
        g,
        [
            ModeSpec(k=(1, 1), amplitude=(0.5, 0.2), solenoidal=False),
            ModeSpec(k=(2, 0), amplitude=(0.3, 0.7), solenoidal=False),
        ],
    )
    got = ito_drift_correction(basis, 1.0)
    oracle = [np.zeros(g.shape) for _ in range(2)]
    for e in basis.modes:
        for p in range(2):
            for q in range(2):
                oracle[p] += e.components[q].values * derivative(e.components[p], q).values
    for p in range(2):
        assert np.allclose(got.components[p].values, oracle[p], atol=1e-14)


def test_drift_correction_quadratic_scaling():
    g = grid2(32)
    spec = ModeSpec(k=(1, 2), amplitude=(0.4, 0.3), solenoidal=False)
    one = ito_drift_correction(build_fourier_basis(g, [spec]), 1.0)
    scaled_spec = ModeSpec(k=(1, 2), amplitude=(0.8, 0.6), solenoidal=False)
    four = ito_drift_correction(build_fourier_basis(g, [scaled_spec]), 1.0)
    for p in range(2):
        assert np.allclose(four.components[p].values, 4.0 * one.components[p].values, atol=1e-13)


def test_lu_incompressibility_pair_for_shear_modes():
    # div e = 0 and d_p d_q sum_i e_i^p e_i^q = 0, both measured on the grid
    g = grid2(64)
    basis = build_fourier_basis(
        g, [ModeSpec(k=(1, 0), amplitude=(0.0, 0.3)), ModeSpec(k=(0, 2), amplitude=(0.2, 0.0))]
    )
    for e in basis.modes:
        assert np.abs(divergence(e).values).max() < 1e-13
    acc = np.zeros(g.shape)
    for p in range(2):
        for q in range(2):
            prod = ScalarField(
                g,
                sum(e.components[p].values * e.components[q].values for e in basis.modes),
            )
            acc += derivative(derivative(prod, p), q).values
    assert np.abs(acc).max() < 1e-13


# --- coefficient tables of the scalar classes -------------------------------

def _table_bases(dim):
    # a mode that is a sum of two waves keeps the wedge and e div e - (e.grad)e
    # nonzero (a plane wave zeroes both); each entry is one basis the
    # operators read tables on
    n = 32 if dim == 2 else 12
    g = Grid((n,) * dim, (TWO_PI,) * dim)
    k1, k2 = ((1, 1), (2, 0)) if dim == 2 else ((1, 1, 0), (0, 1, 2))
    two_wave = (
        fourier_mode_field(g, ModeSpec(k=k1, amplitude=(0.3, 0.2, 0.1)[:dim], solenoidal=False), "sin")
        + fourier_mode_field(g, ModeSpec(k=k2, amplitude=(0.1, 0.25, 0.2)[:dim], solenoidal=False), "cos")
    )
    shear = fourier_mode_field(g, ModeSpec(k=k2, amplitude=(0.0, 0.2, 0.1)[:dim]), "sin")
    forward = NoiseBasis(g, (two_wave, shear), VectorField.constant(g, (0.05, -0.02, 0.03)[:dim]))
    drift_table = fourier_mode_field(g, ModeSpec(k=k1, amplitude=(0.04, 0.02, 0.01)[:dim], solenoidal=False), "cos")
    return {
        "forward": forward,
        "inverse": forward.inverse,
        "lu": forward.with_drift(ito_drift_correction(forward, 1.0)),
        "drift_table": forward.with_drift(drift_table),
    }


def _reference_tables(basis):
    """The tables recomputed mode by mode with `derivative`, no geometry."""
    g, dim = basis.grid, basis.grid.dim
    zero = ScalarField.zeros(g)
    a = basis.drift.components
    wedge, e_grad_div = zero, zero
    e_div_e, self_adv = [zero] * dim, [zero] * dim
    for mode in basis.modes:
        e = mode.components
        de = [[derivative(e[q], p) for q in range(dim)] for p in range(dim)]   # d_p e^q
        dive = sum((de[p][p] for p in range(dim)), start=zero)
        wedge = wedge + dive * dive
        for p in range(dim):
            e_grad_div = e_grad_div + e[p] * derivative(dive, p)
            e_div_e[p] = e_div_e[p] + e[p] * dive
            for q in range(dim):
                wedge = wedge - de[p][q] * de[q][p]
                self_adv[p] = self_adv[p] + e[q] * de[q][p]
    volume = sum((derivative(a[p], p) for p in range(dim)), start=zero) + 0.5 * wedge
    return {
        "volume_drift": [volume],
        "nvector_c0": [volume - e_grad_div],
        "nvector_c1": [self_adv[p] - e_div_e[p] - a[p] for p in range(dim)],
        "flux_velocity": [a[p] + 0.5 * (e_div_e[p] - self_adv[p]) for p in range(dim)],
    }


@pytest.mark.parametrize("kind", ["forward", "inverse", "lu", "drift_table"])
@pytest.mark.parametrize("dim", [2, 3], ids=["2d", "3d"])
def test_coefficient_tables_match_per_mode_recomputation(dim, kind):
    basis = _table_bases(dim)[kind]
    c0, c1 = basis.nvector_rows
    got = {
        "volume_drift": [basis.volume_drift],
        "nvector_c0": [c0],
        "nvector_c1": c1,
        "flux_velocity": basis.flux_velocity,
    }
    for name, expect in _reference_tables(basis).items():
        assert len(got[name]) == len(expect)
        for table, ref in zip(got[name], expect):
            assert np.abs(table - ref.values).max() < 1e-14, name
