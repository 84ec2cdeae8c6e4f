import numpy as np
import pytest

from stochmap.convergence import (
    fit_loglog_slope,
    matched_increment_ensemble,
    run_study,
    study_grid_points,
    symmetric_ensemble,
)


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
