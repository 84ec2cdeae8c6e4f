import collections
import functools

import numpy as np
import pytest

import stochmap.convergence as convergence
import stochmap.grid as grid
from stochmap.convergence import (
    DEFAULT_DTS,
    StudyLevel,
    fit_loglog_slope,
    make_scene_2d,
    make_scene_3d,
    Scene3D,
    matched_increment_ensemble,
    run_study,
    study_grid_points,
    symmetric_ensemble,
    vorticity_fixed_h_study,
    weak_advection_study,
)
from stochmap.forms import perturb_1form
from stochmap.grid import Grid, ScalarField, TensorClass, VectorField
from stochmap.invariants import helicity, vorticity_commutation_defect
from stochmap.maps import DiffeoIncrement
from stochmap.models import advection_diffusion_rhs, two_step_forecast
from stochmap.noise import BrownianIncrements, ModeSpec, build_fourier_basis
from test_forms import drift_shear_and_two_wave_basis


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
    assert fit_loglog_slope(dts, [1e-16, 0.0, 1.5e-16]) == float("inf")


def test_fit_loglog_slope_of_a_series_with_a_zero_above_the_floor_passes_no_gate():
    slope = fit_loglog_slope([1e-2, 5e-3, 2.5e-3], [1e-3, 0.0, 1e-5])
    assert np.isnan(slope) and not slope > 0.5


@pytest.mark.parametrize("dts, values", [((1e-2,), (1e-3,)), ((1e-2,) * 3, (1e-3, 2e-3, 4e-3)),
                                          ((1e-2,) * 3, (1e-16, 2e-16, 3e-16))],
                         ids=["one_point", "one_dt_three_times", "one_dt_at_the_floor"])
def test_fit_loglog_slope_of_fewer_than_two_distinct_dts_passes_no_gate(dts, values):
    slope = fit_loglog_slope(dts, values)
    assert np.isnan(slope) and not slope > 0.5


@pytest.mark.parametrize("dts, match", [
    ((1e-2,), "at least 3 distinct dt values"),
    ((1e-2, 1e-2, 1e-2), "at least 3 distinct dt values"),
    ((1e-2, 5e-3), "at least 3 distinct dt values"),
    ((1e-2, 5e-3, float("nan")), "finite and > 0, got nan"),
    ((1e-2, 5e-3, 0.0), "finite and > 0, got 0.0"),
])
def test_vorticity_fixed_h_study_rejects_the_dts_run_study_rejects(dts, match):
    with pytest.raises(ValueError, match=match):
        vorticity_fixed_h_study(dts=dts, n=32)
    with pytest.raises(ValueError, match=match):
        run_study(metrics=("composition_residual",), dts=dts)


@pytest.mark.parametrize("kwargs, match", [
    ({"t_final": 0.0}, "t_final must be finite and > 0, got 0.0"),
    ({"t_final": -0.1}, "t_final must be finite and > 0, got -0.1"),
    ({"t_final": float("nan")}, "t_final must be finite and > 0, got nan"),
    ({"t_final": float("inf")}, "t_final must be finite and > 0, got inf"),
    ({"dt_coarse": 0.0}, "dt_coarse must be finite and > 0, got 0.0"),
    ({"dt_coarse": float("nan")}, "dt_coarse must be finite and > 0, got nan"),
    ({"dt_coarse": 1.0}, "dt_coarse 1.0 leaves no coarse step in t_final 0.1"),
    ({"n_levels": 0}, "n_levels must be >= 1, got 0"),
    ({"n_levels": -1}, "n_levels must be >= 1, got -1"),
])
def test_weak_advection_study_rejects_bad_inputs_by_value(kwargs, match):
    with pytest.raises(ValueError, match=match):
        weak_advection_study(members=8, **kwargs)


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


@pytest.mark.parametrize("subset", [
    ("drift_tsw_momentum", "mismatch_1form", "pairing_pointwise", "drift_tsw_energy"),
    ("vorticity_commutation_joint", "drift_helicity", "mismatch_nform", "composition_residual", "drift_int_f2g"),
], ids=["tsw_2d", "2d_3d"])
def test_run_study_of_metrics_sharing_a_level_equals_each_metric_alone(subset):
    # the metrics of one level share its increments, closed forms and maps;
    # none of them sees state another one left behind
    dts = DEFAULT_DTS[:3]
    together = run_study(metrics=subset, dts=dts, seed=2)
    alone = [row for metric in subset for row in run_study(metrics=(metric,), dts=dts, seed=2)]
    assert together == alone


def test_run_study_builds_each_scene_once_per_level(monkeypatch):
    # 4 levels: one 2D, one 3D and one TSW scene each, one set of 1-form parts
    # per 2D and 3D scene and one TSW step batched over the 16 members, where
    # a metric-by-metric loop built 36 2D and 8 TSW scenes, computed 128 full
    # 1-form increments and stepped 128 single members
    builds = collections.Counter()
    build_parts = convergence.OneFormParts._parts.func

    class CountingParts(convergence.OneFormParts):
        @functools.cached_property
        def _parts(self):
            builds["OneFormParts"] += 1
            return build_parts(self)

    monkeypatch.setattr(convergence, "OneFormParts", CountingParts)
    counting = {}
    for metric, (dim, build, defect) in list(convergence._STUDY.items()):
        if build not in counting:
            def count(n, build=build):
                builds[build.__name__] += 1
                return build(n)
            counting[build] = count
        monkeypatch.setitem(convergence._STUDY, metric, (dim, counting[build], defect))
    steps = []
    step = convergence.tsw_spde_step

    def recording(state, *args, **kwargs):
        steps.append(state.h.batch_shape)
        return step(state, *args, **kwargs)

    monkeypatch.setattr(convergence, "tsw_spde_step", recording)
    run_study()
    assert builds == {"make_scene_2d": 4, "make_scene_3d": 4, "make_scene_tsw": 4, "OneFormParts": 8}
    assert steps == [(16,)] * 4


def test_the_study_vorticity_metric_is_the_commutation_defect_of_each_member():
    level = StudyLevel(make_scene_2d(32), 1e-2, n_pairs=8, seed=3)
    want = [vorticity_commutation_defect(level.scene.u, d) for d in level.each_member()]
    assert convergence.metric_vorticity_commutation(level).tobytes() == np.stack(want).tobytes()


def _direct_helicity_drift(scene, d):
    """H(u + delta) - H(u), with u's 1-form increment delta under d: two
    helicities of size H(u), so it is off by the round-off of H(u)."""
    return helicity(scene.u + perturb_1form(scene.u_parts, d).realized) - helicity(scene.u)


def _two_wave_scene_3d(n):
    """The 3D study velocity under a varying drift, a shear mode and a mode
    summing two compressive waves."""
    scene = make_scene_3d(n)
    return Scene3D(scene.grid, scene.u, drift_shear_and_two_wave_basis(scene.grid))


@pytest.mark.parametrize("build, n, dt", [(make_scene_3d, 16, 1e-2), (make_scene_3d, 22, 5e-3),
                                          (_two_wave_scene_3d, 16, 1e-2)],
                         ids=["study_16", "study_22", "two_wave_16"])
def test_helicity_drift_from_the_table_is_the_direct_drift_of_each_member(build, n, dt):
    # the two forms differ by the round-off of the direct one, which cancels
    # two helicities of size H(u): 7e-14 of 360 at worst here
    scene = build(n)
    base = helicity(scene.u)
    assert scene.helicity_table[0, 0] == base
    for d in StudyLevel(scene, dt, n_pairs=8, seed=0).each_member():
        assert scene.helicity_drift(d) == pytest.approx(_direct_helicity_drift(scene, d), rel=0.0,
                                                        abs=1e-14 * abs(base))


def _longdouble_helicity_drift(scene, d):
    """The discrete H(u + delta) - H(u) of the study, with delta from u's
    1-form parts, every step in long double and the centered difference
    written with np.roll."""
    ld, g = np.longdouble, scene.grid
    u = [c.values.astype(ld) for c in scene.u.components]
    parts = scene.u_parts
    delta = [ld(d.dt) * parts.drift[j].astype(ld)
             + sum(ld(eta) * rows[j].astype(ld) for eta, rows in zip(d.increments.eta, parts.noise_rows))
             for j in range(3)]

    def diff(v, axis):
        return (np.roll(v, -1, axis) - np.roll(v, 1, axis)) / (2 * ld(g.spacing[axis]))

    def helicity_ld(v):
        curl_v = (diff(v[2], 1) - diff(v[1], 2), diff(v[0], 2) - diff(v[2], 0), diff(v[1], 0) - diff(v[0], 1))
        return sum((v[p] * curl_v[p]).sum() for p in range(3)) * np.prod([ld(h) for h in g.spacing])

    return helicity_ld([up + dp for up, dp in zip(u, delta)]) - helicity_ld(u)


def test_helicity_drift_from_the_table_is_within_round_off_of_a_long_double_evaluation():
    # the direct form is off by up to 1.1e-13 here
    scene = make_scene_3d(32)
    for d in StudyLevel(scene, 2.5e-3, n_pairs=8, seed=0).each_member():
        assert abs(np.longdouble(scene.helicity_drift(d)) - _longdouble_helicity_drift(scene, d)) < 1e-15


def test_helicity_drift_takes_one_member_under_the_scene_basis():
    scene = make_scene_3d(16)
    level = StudyLevel(scene, 1e-2, n_pairs=8, seed=0)
    with pytest.raises(ValueError, match="takes one member"):
        scene.helicity_drift(level.batch)
    other = make_scene_3d(16).basis
    with pytest.raises(ValueError, match="not under the scene's basis"):
        scene.helicity_drift(DiffeoIncrement(other, BrownianIncrements(1e-2, level.eta[0])))


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


@pytest.mark.skipif(not grid.KEEPS_FREED_HEAP, reason="no glibc mallopt: the allocator keeps its defaults")
def test_repeated_study_members_fault_no_pages_back_in():
    # with glibc's defaults each call trims the heap top and faults it back
    # in: 8 895 minor faults per call at 46^3
    import resource

    scene = make_scene_3d(46)
    d = DiffeoIncrement(scene.basis, BrownianIncrements(dt=1.25e-3, eta=np.array([0.035, -0.02])))
    _direct_helicity_drift(scene, d)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(3):
        _direct_helicity_drift(scene, d)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


def _no_cdll_of_none(name):
    raise TypeError("CDLL(None) needs a library name on this platform")


@pytest.mark.parametrize("platform, cdll", [("linux", lambda name: object()), ("win32", _no_cdll_of_none)],
                         ids=["libc_without_mallopt", "not_linux"])
def test_allocator_setup_without_glibc_mallopt_sets_nothing(monkeypatch, platform, cdll):
    monkeypatch.setattr(grid.sys, "platform", platform)
    monkeypatch.setattr(grid.ctypes, "CDLL", cdll)
    assert grid.keep_freed_heap() is False
