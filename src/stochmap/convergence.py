"""Order-of-accuracy studies for the perturbation scheme.

Two noise-refinement devices, used for different questions:

* ``matched_increment_ensemble`` — an ensemble of Brownian paths refined by
  summation (each coarse increment is exactly the sum of its fine
  sub-increments), moment-matched at every level.  Used by the weak-order
  study of the advection SPDE.

* ``symmetric_ensemble`` — an antithetic ensemble whose per-mode sample
  second moments are exactly dt and whose cross moments vanish exactly.
  Averaging a per-step defect over it realises the Ito bookkeeping
  (eta_i eta_j -> delta_ij dt) in finite samples: a raw single-path defect
  carries an O(dt) quadratic-variation fluctuation (eta^2 - dt) that no
  refinement removes, and this ensemble cancels it identically, leaving the
  genuine higher-order remainder.

Per-step metrics are measured with the grid co-refined as N ~ dt^(-1/2), so
the O(h^2)-per-dt stencil defects shrink at the same rate as the time terms
and the fitted slope reflects the scheme order rather than a fixed-h floor.

The weak-mean study (`weak_advection_study`) steps its members in batches,
`grid.BATCH_POINTS` grid points per array (4 members at 64^2), through the
member axis of `two_step_forecast`: one step call per batch, not per member,
each member keeping the bits of its own trajectory.  The level means add the
members in member order, so they equal a member-by-member loop exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import integrate, sample_at
from .forms import (
    NFormMode,
    oracle_remap,
    perturb_0form,
    perturb_1form,
    perturb_mixed_pair,
    perturb_nform,
    pushforward_nvector,
)
from .grid import Grid, ScalarField, TensorClass, VectorField
from .invariants import helicity, tsw_invariants, vorticity_commutation_defect
from .maps import DiffeoIncrement, forward_map, inverse_map
from .models import TSWState, tsw_spde_step, TSWParams, advection_diffusion_rhs, two_step_forecast
from .noise import BrownianIncrements, ModeSpec, NoiseBasis, build_fourier_basis

DEFAULT_DTS = (1e-2, 5e-3, 2.5e-3, 1.25e-3)
TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# noise refinement devices

def matched_increment_ensemble(m: int, dt_finest: float, n_finest: int, n_levels: int,
                               members: int, rng: np.random.Generator) -> list[list[np.ndarray]]:
    """Ensemble of matched paths with hierarchical moment matching.

    Antithetic halves plus a per-coarse-step orthonormalization of the fine
    increment columns: within every coarsest-step window all second moments
    (per step, per mode, and their cross products) are exact over the
    ensemble, at every refinement level simultaneously.  That removes the
    quadratic-variation sampling noise that otherwise hides the O(dt) weak
    bias in coupled level differences, while coarse increments stay exact
    sums of fine ones.
    """
    span = 1 << (n_levels - 1)
    if n_finest % span:
        raise ValueError("n_finest must be divisible by 2^(n_levels-1)")
    if members % 2:
        raise ValueError("members must be even (antithetic pairs)")
    half = members // 2
    group = span * m
    if half < group:
        raise ValueError(f"need at least {2 * group} members for {n_levels} levels of {m} modes")
    x = rng.standard_normal((half, n_finest * m))
    cols = x.reshape(half, n_finest // span, group)
    for gidx in range(cols.shape[1]):
        q, r = np.linalg.qr(cols[:, gidx, :])
        cols[:, gidx, :] = q * np.sign(np.diag(r)) * np.sqrt(half)
    x = cols.reshape(half, n_finest, m) * np.sqrt(dt_finest)
    fine_members = np.concatenate([x, -x], axis=0)
    out = []
    for k in range(members):
        levels = [fine_members[k]]
        for _ in range(n_levels - 1):
            prev = levels[-1]
            levels.append(prev.reshape(prev.shape[0] // 2, 2, m).sum(axis=1))
        out.append(levels)
    return out


def symmetric_ensemble(m: int, n_pairs: int, seed: int) -> np.ndarray:
    """(2*n_pairs, m) standardized draws: antithetic, unit sample variance,
    zero sample cross-moments (exact, via QR)."""
    if n_pairs < m:
        raise ValueError("need at least m pairs to orthonormalize m modes")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_pairs, m))
    q, r = np.linalg.qr(x)
    q = q * np.sign(np.diag(r))  # fix QR sign ambiguity for reproducibility
    half = q * np.sqrt(n_pairs)
    return np.vstack([half, -half])


ROUNDOFF_FLOOR = 1e-13


def fit_loglog_slope(dts, values) -> float:
    """Least-squares slope of log(value) against log(dt).

    Defects that sit at the round-off floor are conserved exactly rather
    than decaying at a measurable order; they report +inf, which any
    slope threshold accepts.
    """
    dts = np.asarray(dts, dtype=float)
    values = np.asarray(values, dtype=float)
    if np.any(values <= 0) or values.max() < ROUNDOFF_FLOOR:
        return float("inf")
    return float(np.polyfit(np.log(dts), np.log(values), 1)[0])


# ---------------------------------------------------------------------------
# standard study scenes

def study_grid_points(dt: float, dim: int) -> int:
    base = 32 if dim == 2 else 16
    n = int(round(base * np.sqrt(DEFAULT_DTS[0] / dt) / 2.0)) * 2
    return max(n, 16)


@dataclass
class Scene2D:
    grid: Grid
    f0: ScalarField       # generic smooth scalar (0-form)
    fn: ScalarField       # density-like scalar (n-form)
    gv: ScalarField       # dual scalar (n-vector)
    u: VectorField        # smooth velocity (1-form)
    basis: NoiseBasis


def make_scene_2d(n: int) -> Scene2D:
    g = Grid((n, n), (TWO_PI, TWO_PI))
    f0 = ScalarField.from_function(
        g, lambda x, y: 1.5 + np.sin(x) * np.cos(y) + 0.4 * np.cos(2 * x) + 0.3 * np.sin(x + 2 * y)
    )
    fn = ScalarField.from_function(g, lambda x, y: 1.2 + 0.5 * np.sin(x) * np.cos(y) + 0.3 * np.cos(2 * y))
    gv = ScalarField.from_function(g, lambda x, y: 0.8 + 0.4 * np.cos(x + y) + 0.3 * np.sin(2 * y))
    u = VectorField(
        g,
        (
            ScalarField.from_function(g, lambda x, y: np.sin(y) + 0.3 * np.cos(2 * x)),
            ScalarField.from_function(g, lambda x, y: np.cos(x) + 0.4 * np.sin(x + y)),
        ),
    )
    drift = VectorField.constant(g, (0.15, -0.1))
    basis = build_fourier_basis(
        g,
        [ModeSpec(k=(1, 0), amplitude=(0.0, 0.2)), ModeSpec(k=(0, 2), amplitude=(0.15, 0.0))],
        drift=drift,
    )
    return Scene2D(g, f0, fn, gv, u, basis)


@dataclass
class Scene3D:
    grid: Grid
    u: VectorField
    basis: NoiseBasis


def make_scene_3d(n: int) -> Scene3D:
    g = Grid((n, n, n), (TWO_PI, TWO_PI, TWO_PI))
    u = VectorField(
        g,
        (
            ScalarField.from_function(g, lambda x, y, z: np.sin(z) + 0.5 * np.cos(y)),
            ScalarField.from_function(g, lambda x, y, z: np.sin(x) + 0.5 * np.cos(z)),
            ScalarField.from_function(g, lambda x, y, z: np.sin(y) + 0.5 * np.cos(x)),
        ),
    )
    drift = VectorField.constant(g, (0.08, 0.0, -0.05))
    basis = build_fourier_basis(
        g,
        [
            ModeSpec(k=(1, 0, 0), amplitude=(0.0, 0.15, 0.0)),
            ModeSpec(k=(0, 1, 0), amplitude=(0.0, 0.0, 0.12)),
        ],
        drift=drift,
    )
    return Scene3D(g, u, basis)


@dataclass
class SceneTSW:
    grid: Grid
    state: TSWState
    basis: NoiseBasis


def make_scene_tsw(n: int) -> SceneTSW:
    g = Grid((n, n), (TWO_PI, TWO_PI))
    h = ScalarField.from_function(g, lambda x, y: 1.0 + 0.1 * np.sin(x) * np.cos(y) + 0.05 * np.cos(2 * y))
    theta = ScalarField.from_function(g, lambda x, y: 1.0 + 0.08 * np.cos(x + y) + 0.05 * np.sin(2 * x))
    u = VectorField(
        g,
        (
            ScalarField.from_function(g, lambda x, y: 0.1 * np.sin(y)),
            ScalarField.from_function(g, lambda x, y: 0.1 * np.cos(x)),
        ),
    )
    # the oblique mode breaks the shear-only product-rule exactness, so the
    # momentum and energy drifts measure a genuine decay rather than round-off
    basis = build_fourier_basis(
        g,
        [
            ModeSpec(k=(1, 0), amplitude=(0.0, 0.2)),
            ModeSpec(k=(0, 2), amplitude=(0.15, 0.0)),
            ModeSpec(k=(1, 1), amplitude=(0.1, -0.1)),
        ],
    )
    return SceneTSW(g, TSWState(h, theta, u), basis)


# ---------------------------------------------------------------------------
# per-step defect metrics (each returns an array; the study averages over the
# symmetric ensemble before taking the RMS)

def _mismatch(tensor_class: TensorClass, field, closed, d: DiffeoIncrement):
    remapped = oracle_remap(tensor_class, field, d)
    if isinstance(field, VectorField):
        return np.stack(
            [r.values - (o.values - f.values)
             for r, o, f in zip(closed.realized.components, remapped.components, field.components)]
        )
    return closed.realized.values - (remapped.values - field.values)


def metric_mismatch_0form(scene: Scene2D, d: DiffeoIncrement):
    return _mismatch(TensorClass.ZERO_FORM, scene.f0, perturb_0form(scene.f0, d), d)


def metric_mismatch_nform(scene: Scene2D, d: DiffeoIncrement):
    return _mismatch(TensorClass.N_FORM, scene.fn, perturb_nform(scene.fn, d, NFormMode.FLUX), d)


def metric_mismatch_1form(scene: Scene2D, d: DiffeoIncrement):
    return _mismatch(TensorClass.ONE_FORM, scene.u, perturb_1form(scene.u, d), d)


def metric_mismatch_nvector(scene: Scene2D, d: DiffeoIncrement):
    return _mismatch(TensorClass.N_VECTOR, scene.gv, pushforward_nvector(scene.gv, d), d)


def metric_composition(scene: Scene2D, d: DiffeoIncrement):
    pts = scene.grid.points()
    roundtrip = forward_map(d, inverse_map(d, pts))
    return scene.grid.wrap_displacement(roundtrip - pts)


def metric_drift_int_fg(scene: Scene2D, d: DiffeoIncrement):
    fh = scene.fn + perturb_nform(scene.fn, d, NFormMode.FLUX).realized
    gh = scene.gv + perturb_0form(scene.gv, d).realized
    return np.array([integrate(fh * gh) - integrate(scene.fn * scene.gv)])


def metric_drift_int_f2g(scene: Scene2D, d: DiffeoIncrement):
    rf, rg = perturb_mixed_pair(scene.fn, scene.gv, d)
    fh = scene.fn + rf.realized
    gh = scene.gv + rg.realized
    return np.array([integrate(fh * fh * gh) - integrate(scene.fn * scene.fn * scene.gv)])


def metric_pairing_pointwise(scene: Scene2D, d: DiffeoIncrement):
    rf, rg = perturb_mixed_pair(scene.fn, scene.gv, d)
    fh = scene.fn + rf.realized
    gh = scene.gv + rg.realized
    inv = inverse_map(d, scene.grid.points())
    return sample_at(fh * gh, inv).reshape(scene.grid.shape) - (scene.fn * scene.gv).values


def metric_vorticity_commutation(scene: Scene2D, d: DiffeoIncrement):
    return vorticity_commutation_defect(scene.u, d)


def metric_drift_helicity(scene: Scene3D, d: DiffeoIncrement):
    uhat = scene.u + perturb_1form(scene.u, d).realized
    return np.array([helicity(uhat) - helicity(scene.u)])


def metric_drift_tsw(scene: SceneTSW, d: DiffeoIncrement):
    new = tsw_spde_step(scene.state, TSWParams(), scene.basis, d.dt, np.random.default_rng(0),
                        rhs_enabled=False, increment=d)
    e0, m0, p0 = tsw_invariants(scene.state)
    e1, m1, p1 = tsw_invariants(new)
    return np.array([e1 - e0]), np.array([p1[0] - p0[0], p1[1] - p0[1]])


# every study metric: name -> (scene dimension, scene builder, per-step defect)
_STUDY = {
    "mismatch_0form": (2, make_scene_2d, metric_mismatch_0form),
    "mismatch_1form": (2, make_scene_2d, metric_mismatch_1form),
    "mismatch_nform": (2, make_scene_2d, metric_mismatch_nform),
    "mismatch_nvector": (2, make_scene_2d, metric_mismatch_nvector),
    "composition_residual": (2, make_scene_2d, metric_composition),
    "drift_int_fg": (2, make_scene_2d, metric_drift_int_fg),
    "drift_int_f2g": (2, make_scene_2d, metric_drift_int_f2g),
    "pairing_pointwise": (2, make_scene_2d, metric_pairing_pointwise),
    "vorticity_commutation_joint": (2, make_scene_2d, metric_vorticity_commutation),
    "drift_helicity": (3, make_scene_3d, metric_drift_helicity),
    "drift_tsw_energy": (2, make_scene_tsw, lambda scene, d: metric_drift_tsw(scene, d)[0]),
    "drift_tsw_momentum": (2, make_scene_tsw, lambda scene, d: metric_drift_tsw(scene, d)[1]),
}

STUDY_METRICS = tuple(_STUDY)


@dataclass
class StudyRow:
    metric: str
    dt: float
    grid_points: int
    value: float
    slope: float = float("nan")


def _ensemble_mean_defect(make_d, metric, ensemble: np.ndarray, dt: float) -> float:
    acc = None
    for row in ensemble:
        d = make_d(BrownianIncrements(dt=dt, eta=np.sqrt(dt) * row))
        defect = np.asarray(metric(d), dtype=float)
        acc = defect if acc is None else acc + defect
    mean = acc / ensemble.shape[0]
    return float(np.sqrt(np.mean(mean**2)))


def run_study(metrics=STUDY_METRICS, dts=DEFAULT_DTS, seed: int = 0,
              n_pairs: int = 8, safety: float = 1.0) -> list[StudyRow]:
    """Evaluate the per-step defect metrics over co-refined (grid, dt) levels.

    Defect fields are averaged over a symmetric moment-matched ensemble
    before taking norms; see the module docstring for why.
    """
    if len(dts) < 3:
        raise ValueError("a convergence study needs at least 3 dt values")
    dts = sorted(dts, reverse=True)
    rows: list[StudyRow] = []
    for metric in metrics:
        dim, make_scene, defect = _STUDY[metric]
        values = []
        ns = []
        for dt in dts:
            n = study_grid_points(dt, dim)
            scene = make_scene(n)
            ens = symmetric_ensemble(scene.basis.n_modes, n_pairs, seed)
            values.append(_ensemble_mean_defect(
                lambda inc: DiffeoIncrement(scene.basis, inc, safety=safety),
                lambda d: defect(scene, d), ens, dt))
            ns.append(n)
        slope = fit_loglog_slope(dts, values)
        for dt, n, val in zip(dts, ns, values):
            rows.append(StudyRow(metric, dt, n, val, slope))
    return rows


def vorticity_fixed_h_study(dts=DEFAULT_DTS, n: int = 128, seed: int = 0,
                            n_pairs: int = 8, safety: float = 2.5) -> tuple[list[float], float]:
    """Commutation defect at one fixed fine grid across the dt ladder.

    The fitted slope is exactly 1, so a 3/2 threshold fails by construction.
    Both closed forms are affine in the draw, so the defect is
    dt E_0 + sum_i eta_i E_i with fields E_0, E_i fixed by basis and grid.
    They vanish in the continuum, where the exterior derivative commutes with
    the remap, but centered differences keep the product rule only to
    O(h^2): at fixed h, E_0 and E_i are O(h^2) and nonzero.  The antithetic
    ensemble sums every eta_i to zero, leaving the mean dt E_0, slope 1 in
    dt (a single draw, dominated by eta ~ dt^(1/2), has slope 1/2).  With h
    refined as dt^(1/2) the mean is O(dt^2); that is `run_study`'s
    "vorticity_commutation_joint" metric, at slope about 2.
    """
    scene = make_scene_2d(n)
    ens = symmetric_ensemble(scene.basis.n_modes, n_pairs, seed)
    values = [
        _ensemble_mean_defect(
            lambda inc: DiffeoIncrement(scene.basis, inc, safety=safety),
            lambda d: metric_vorticity_commutation(scene, d), ens, dt,
        )
        for dt in dts
    ]
    return values, fit_loglog_slope(dts, values)


def rows_to_csv(rows: list[StudyRow]) -> str:
    lines = ["dt,metric,value,slope"]
    lines += [f"{r.dt!r},{r.metric},{r.value!r},{r.slope!r}" for r in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# weak convergence of the stochastic advection SPDE

def weak_advection_study(
    n: int = 64,
    t_final: float = 0.1,
    dt_coarse: float = 2.5e-3,
    n_levels: int = 3,
    members: int = 256,
    amplitude: float = 0.4,
    velocity=(1.0, 0.5),
    seed: int = 0,
) -> dict:
    """Ensemble mean of the constant-noise advection SPDE vs the exact mean.

    With constant solenoidal modes the ensemble mean solves advection with
    the extra diffusion (1/2) sum_i e_i e_i^T; the exact solution is applied
    per Fourier coefficient.  Returns the relative L2 error of the mean at
    every level plus coupled successive-refinement differences (same
    Brownian paths via summation), whose ratios expose the weak order
    without the Monte-Carlo noise floor.
    """
    g = Grid((n, n), (TWO_PI, TWO_PI))
    f0 = ScalarField.from_function(
        g, lambda x, y: 1.0 + np.sin(x) * np.cos(y) + 0.5 * np.cos(2 * y) + 0.3 * np.sin(x + y)
    )
    u = VectorField.constant(g, velocity)
    modes = [
        ModeSpec(k=(0, 0), amplitude=(amplitude, 0.0)),
        ModeSpec(k=(0, 0), amplitude=(0.0, amplitude)),
    ]
    basis = build_fourier_basis(g, modes)
    n_fine = int(round(t_final / dt_coarse)) * (1 << (n_levels - 1))
    dt_fine = t_final / n_fine

    rhs = lambda s: {"f": advection_diffusion_rhs(s["f"], u, 0.0)}
    assignment = {"f": TensorClass.ZERO_FORM}

    means = []
    level_dts = []
    for level in range(n_levels - 1, -1, -1):  # coarsest first
        stride = 1 << level
        level_dts.append(dt_fine * stride)
        means.append(np.zeros(g.shape))
    member_rng = np.random.default_rng(seed)
    paths = matched_increment_ensemble(len(basis.modes), dt_fine, n_fine, n_levels,
                                       members, member_rng)
    unused_rng = np.random.default_rng(0)   # every step passes its increment
    batch = g.members_per_batch
    for first in range(0, members, batch):
        batch_paths = paths[first:first + batch]
        f_batch = ScalarField(g, np.broadcast_to(f0.values, (len(batch_paths),) + g.shape))
        for li, level in enumerate(range(n_levels - 1, -1, -1)):
            etas = np.stack([levels[level] for levels in batch_paths], axis=1)   # (steps, batch, m)
            dt = dt_fine * (1 << level)
            state = {"f": f_batch}
            for step in range(etas.shape[0]):
                inc = BrownianIncrements(dt=dt, eta=etas[step])
                d = DiffeoIncrement(basis, inc, safety=4.0)
                state = two_step_forecast(state, rhs, assignment, basis, dt,
                                          unused_rng, increment=d)
            for member in state["f"].values:     # in member order, as one member at a time would
                means[li] += member
    means = [m / members for m in means]

    # exact mean: per continuum Fourier mode, symbol -i u.k - (1/2) sum (e_i.k)^2
    kx = np.fft.fftfreq(n, d=1.0 / n)
    ks = np.meshgrid(kx, kx, indexing="ij")
    ee = np.zeros_like(ks[0])
    for e in basis.modes:
        ek = sum(e.components[p].values.flat[0] * ks[p] for p in range(2))
        ee += ek**2
    symbol = -1j * sum(velocity[p] * ks[p] for p in range(2)) - 0.5 * ee
    exact = np.real(np.fft.ifft2(np.fft.fft2(f0.values) * np.exp(symbol * t_final)))

    ref = np.sqrt(np.mean(exact**2))
    errors = [float(np.sqrt(np.mean((m - exact) ** 2)) / ref) for m in means]
    diffs = [float(np.sqrt(np.mean((means[i] - means[i + 1]) ** 2))) for i in range(len(means) - 1)]
    return {"dts": level_dts, "errors": errors, "coupled_diffs": diffs}
