import numpy as np
import pytest

import stochmap.convergence as convergence
from stochmap.convergence import (
    fit_loglog_slope,
    matched_increment_ensemble,
    run_study,
    study_grid_points,
    symmetric_ensemble,
    weak_advection_study,
)
from stochmap.grid import Grid, ScalarField, TensorClass, VectorField
from stochmap.maps import DiffeoIncrement
from stochmap.models import advection_diffusion_rhs, two_step_forecast
from stochmap.noise import BrownianIncrements, ModeSpec, build_fourier_basis


def test_matched_ensemble_sum_property_and_moments():
    m, n_fine, n_levels, members = 2, 8, 2, 32
    paths = matched_increment_ensemble(m, 1e-3, n_fine, n_levels, members,
                                       np.random.default_rng(1))
    assert len(paths) == members
    fine = np.stack([p[0] for p in paths])         # (members, n_fine, m)
    coarse = np.stack([p[1] for p in paths])
    assert np.array_equal(coarse, fine.reshape(members, n_fine // 2, 2, m).sum(axis=2))
    # antithetic: second half is the negation of the first
    assert np.array_equal(fine[members // 2:], -fine[: members // 2])
    # per-column variance exactly dt, sibling cross-moments exactly zero
    flat = fine.reshape(members, -1)
    var = (flat**2).mean(axis=0)
    assert np.allclose(var, 1e-3, atol=1e-16)
    sib = (fine[:, 0, :] * fine[:, 1, :]).mean(axis=0)
    assert np.allclose(sib, 0.0, atol=1e-18)


def test_matched_ensemble_member_count_guard():
    with pytest.raises(ValueError):
        matched_increment_ensemble(2, 1e-3, 8, 3, 8, np.random.default_rng(0))
    with pytest.raises(ValueError):
        matched_increment_ensemble(1, 1e-3, 8, 2, 9, np.random.default_rng(0))


def test_matched_paths_need_divisible_step_count():
    with pytest.raises(ValueError):  # 10 fine steps do not halve twice
        matched_increment_ensemble(1, 1e-3, 10, 3, 8, np.random.default_rng(0))


def test_symmetric_ensemble_exact_moments():
    z = symmetric_ensemble(3, 8, seed=5)
    assert z.shape == (16, 3)
    assert np.allclose(z.mean(axis=0), 0.0, atol=1e-16)
    second = z.T @ z / z.shape[0]
    assert np.allclose(second, np.eye(3), atol=1e-13)
    assert np.array_equal(z[8:], -z[:8])


def test_symmetric_ensemble_needs_enough_pairs():
    with pytest.raises(ValueError):
        symmetric_ensemble(4, 2, seed=0)


def test_fit_loglog_slope_basics():
    dts = [1e-2, 5e-3, 2.5e-3]
    assert fit_loglog_slope(dts, [d**1.5 for d in dts]) == pytest.approx(1.5, abs=1e-10)
    # series at the round-off floor report as conserved exactly
    assert fit_loglog_slope(dts, [1e-16, 2e-16, 1.5e-16]) == float("inf")


def test_study_grid_points_co_refinement():
    assert study_grid_points(1e-2, 2) == 32
    assert study_grid_points(2.5e-3, 2) == 64
    assert study_grid_points(1e-2, 3) == 16
    # h^2 ~ dt within rounding
    n1, n2 = study_grid_points(1e-2, 2), study_grid_points(1.25e-3, 2)
    assert 7.0 < (n2 / n1) ** 2 < 9.0


def test_run_study_needs_three_dts():
    with pytest.raises(ValueError):
        run_study(metrics=("composition_residual",), dts=(1e-2, 5e-3))


def test_run_study_rows_layout():
    rows = run_study(metrics=("composition_residual",), dts=(1e-2, 5e-3, 2.5e-3), seed=1)
    assert len(rows) == 3
    assert {r.metric for r in rows} == {"composition_residual"}
    assert len({r.slope for r in rows}) == 1  # shared fitted slope
    assert rows[0].dt > rows[-1].dt
    assert rows[0].value > rows[-1].value


def test_weak_study_in_ragged_batches_equals_one_member_at_a_time(monkeypatch):
    # 18 members at 64^2 run as batches of 4, 4, 4, 4 and 2; the level means,
    # summed in member order, keep the bits of a member-by-member loop
    n, t_final, dt_coarse, n_levels, members, amplitude, velocity, seed = (
        64, 0.02, 2.5e-3, 3, 18, 0.4, (1.0, 0.5), 3)
    batches = []
    forecast = convergence.two_step_forecast

    def recording(state, *args, **kwargs):
        batches.append(state["f"].values.shape[0])
        return forecast(state, *args, **kwargs)

    monkeypatch.setattr(convergence, "two_step_forecast", recording)
    got = weak_advection_study(n=n, t_final=t_final, dt_coarse=dt_coarse, n_levels=n_levels,
                               members=members, amplitude=amplitude, velocity=velocity, seed=seed)
    steps = 8 + 16 + 32     # one batch runs every level
    assert batches == [4] * (4 * steps) + [2] * steps

    g = Grid((n, n), (2.0 * np.pi, 2.0 * np.pi))
    f0 = ScalarField.from_function(
        g, lambda x, y: 1.0 + np.sin(x) * np.cos(y) + 0.5 * np.cos(2 * y) + 0.3 * np.sin(x + y))
    u = VectorField.constant(g, velocity)
    basis = build_fourier_basis(g, [ModeSpec(k=(0, 0), amplitude=(amplitude, 0.0)),
                                    ModeSpec(k=(0, 0), amplitude=(0.0, amplitude))])
    n_fine = int(round(t_final / dt_coarse)) << (n_levels - 1)
    dt_fine = t_final / n_fine
    paths = matched_increment_ensemble(2, dt_fine, n_fine, n_levels, members, np.random.default_rng(seed))
    rhs = lambda s: {"f": advection_diffusion_rhs(s["f"], u, 0.0)}
    means = [np.zeros(g.shape) for _ in range(n_levels)]
    for levels in paths:
        for li, level in enumerate(range(n_levels - 1, -1, -1)):
            dt = dt_fine * (1 << level)
            state = {"f": f0}
            for eta in levels[level]:
                d = DiffeoIncrement(basis, BrownianIncrements(dt, eta), safety=4.0)
                state = forecast(state, rhs, {"f": TensorClass.ZERO_FORM}, basis, dt,
                                 np.random.default_rng(0), increment=d)
            means[li] += state["f"].values
    means = [m / members for m in means]
    k = np.fft.fftfreq(n, d=1.0 / n)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    symbol = -1j * (velocity[0] * kx + velocity[1] * ky) - 0.5 * ((amplitude * kx) ** 2 + (amplitude * ky) ** 2)
    exact = np.real(np.fft.ifft2(np.fft.fft2(f0.values) * np.exp(symbol * t_final)))
    ref = np.sqrt(np.mean(exact**2))
    assert got["errors"] == [float(np.sqrt(np.mean((m - exact) ** 2)) / ref) for m in means]
    assert got["coupled_diffs"] == [float(np.sqrt(np.mean((means[i] - means[i + 1]) ** 2)))
                                    for i in range(n_levels - 1)]
