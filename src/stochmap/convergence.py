"""Order-of-accuracy studies for the perturbation scheme.

Two noise-refinement devices answer different questions:

* ``matched_increment_ensemble``: Brownian paths refined by summation, each
  coarse increment exactly the sum of its fine ones, for the weak order.
* ``symmetric_ensemble``: antithetic draws whose per-mode second moments are
  exactly dt and whose cross moments vanish.  A single-path defect carries an
  O(dt) quadratic-variation fluctuation (eta^2 - dt) that no refinement
  removes; averaging over this ensemble cancels it identically, leaving the
  genuine higher-order remainder.

Per-step metrics co-refine the grid as N ~ dt^(-1/2), so the O(h^2)-per-dt
stencil defects shrink with the time terms and the slope shows the scheme's
order, not a fixed-h floor.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .calculus import curl, integrate, member_integrals, sample_at
from .forms import (
    NFormMode,
    NodeMaps,
    OneFormParts,
    oracle_remap,
    perturb_0form,
    perturb_1form,
    perturb_nform,
    pushforward_nvector,
)
from .grid import Grid, ScalarField, TensorClass, VectorField
from .invariants import tsw_invariants
from .maps import DiffeoIncrement, forward_map, inverse_increment
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

    Fewer than two distinct dts fix no slope, and report nan, which no slope
    threshold accepts.  Defects that sit at the round-off floor are conserved
    exactly rather than decaying at a measurable order; a series wholly below
    it reports +inf, which any threshold accepts.  Any other series with a
    value <= 0 has no logarithm to fit and reports nan.
    """
    dts = np.asarray(dts, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(set(dts)) < 2:
        return float("nan")
    if values.max() < ROUNDOFF_FLOOR:
        return float("inf")
    if np.any(values <= 0):
        return float("nan")
    return float(np.polyfit(np.log(dts), np.log(values), 1)[0])


# ---------------------------------------------------------------------------
# standard study scenes

def study_grid_points(dt: float, dim: int) -> int:
    base = 32 if dim == 2 else 16
    n = int(round(base * np.sqrt(DEFAULT_DTS[0] / dt) / 2.0)) * 2
    return max(n, 16)


class _VelocityScene:
    """A scene whose velocity ``u`` is transported as a 1-form under its ``basis``."""

    @cached_property
    def u_parts(self) -> OneFormParts:
        """The parts of u's 1-form increment that no draw changes, read by every
        member at every dt."""
        return OneFormParts(self.u, self.basis)


@dataclass
class Scene2D(_VelocityScene):
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
class Scene3D(_VelocityScene):
    """A 3D velocity u under two plane-wave modes and a constant drift.

    The helicity study reads each member's drift H(u + delta) - H(u) from one
    table of the scene, `helicity_table`, not from a helicity of each
    member's field: u's 1-form increment under a draw is affine in it,
    delta = dt D + sum_i eta_i N_i (`u_parts`), and the discrete helicity
    H(v) = integral of v . curl v is quadratic in v.
    """
    grid: Grid
    u: VectorField
    basis: NoiseBasis

    @cached_property
    def helicity_table(self) -> np.ndarray:
        """Q[a, b] = integral of F_a . curl F_b for F = (u, D, N_1, ..., N_m),
        built one curl at a time.  Each entry is summed as `invariants.helicity`
        sums u . curl u, so Q[0, 0] is H(u) bit for bit."""
        fields = [[c.values for c in self.u.components], self.u_parts.drift] + self.u_parts.noise_rows
        table = np.empty((len(fields), len(fields)))
        acc, term = np.empty(self.grid.shape), np.empty(self.grid.shape)
        for b, rows in enumerate(fields):
            curl_b = [c.values for c in curl(VectorField.from_arrays(self.grid, rows)).components]
            for a, other in enumerate(fields):
                np.multiply(other[0], curl_b[0], out=acc)
                for p in (1, 2):
                    acc += np.multiply(other[p], curl_b[p], out=term)
                table[a, b] = acc.sum() * self.grid.cell_volume
        return table

    def helicity_drift(self, d: DiffeoIncrement) -> float:
        """H(u + delta) - H(u) for u's 1-form increment delta under the draw
        of ``d``: with c = (0, dt, eta_1, ..., eta_m), Q[0, :].c + c.Q[:, 0]
        + c.Q.c.  Unlike a difference of two helicities, it cancels nothing
        of size H(u)."""
        if d.batch_shape:
            raise ValueError(f"helicity_drift takes one member; got an increment batched over {d.batch_shape}")
        if d.basis is not self.basis:
            raise ValueError("helicity_drift: the increment is not under the scene's basis")
        c = np.concatenate(([0.0, d.dt], d.increments.eta))
        table = self.helicity_table
        return float(table[0] @ c + c @ table[:, 0] + c @ table @ c)


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
# one dt level of a scene, and what its metrics share

class StudyLevel:
    """One scene at one dt under its symmetric ensemble, and every increment,
    closed form and map that more than one of its metrics reads, each built
    on first read and kept while the level lives.  The ensemble is one
    increment batched over the members (`batch`), acting on the scene fields
    broadcast over them (`batched`); the 1-form sums the noise rows of the
    scene's `u_parts`, which every level on that scene shares, weighted by
    each member's eta.  The helicity drift takes one member at a time
    (`each_member`).
    """

    def __init__(self, scene, dt: float, n_pairs: int, seed: int, safety: float = 1.0):
        self.scene, self.dt, self.safety = scene, dt, safety
        self.eta = np.sqrt(dt) * symmetric_ensemble(scene.basis.n_modes, n_pairs, seed)   # (members, m)

    def each_member(self):
        """One single-member increment per member, in member order, each built
        as it is read."""
        for eta in self.eta:
            yield DiffeoIncrement(self.scene.basis, BrownianIncrements(self.dt, eta), self.safety)

    def batched(self, f: ScalarField) -> ScalarField:
        return f.with_values(np.broadcast_to(f.values, self.eta.shape[:1] + f.grid.shape))

    @cached_property
    def batch(self) -> DiffeoIncrement:
        return DiffeoIncrement(self.scene.basis, BrownianIncrements(self.dt, self.eta), self.safety)

    @cached_property
    def maps(self) -> NodeMaps:
        return NodeMaps(self.batch)

    @cached_property
    def nform(self) -> ScalarField:
        """The flux n-form increment of the density f_n."""
        return perturb_nform(self.batched(self.scene.fn), self.batch, NFormMode.FLUX).realized

    @cached_property
    def mixed_nvector(self) -> ScalarField:
        """The n-vector increment of g along the inverse map, the variant half
        of `perturb_mixed_pair`."""
        return pushforward_nvector(self.batched(self.scene.gv), inverse_increment(self.batch)).realized

    @cached_property
    def one_form(self) -> VectorField:
        """The 1-form increment of u under the batch."""
        return perturb_1form(self.scene.u_parts, self.batch).realized

    @cached_property
    def tsw_drifts(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(energy drift, momentum drift) per member over one perturbation-only
        TSW step."""
        state = self.scene.state
        batched = TSWState(self.batched(state.h), self.batched(state.theta),
                           VectorField(state.grid, tuple(self.batched(c) for c in state.u.components)))
        new = tsw_spde_step(batched, TSWParams(), self.scene.basis, self.dt, np.random.default_rng(0),
                            rhs_enabled=False, increment=self.batch)
        e0, _, p0 = tsw_invariants(state)
        return [(np.array([e1 - e0]), np.array([p1[0] - p0[0], p1[1] - p0[1]]))
                for e1, _, p1 in tsw_invariants(new)]


# ---------------------------------------------------------------------------
# per-step defect metrics: each gives a level's per-member defect arrays, in
# member order (an array with a leading member axis, or a list); the study
# averages them over the symmetric ensemble before taking the RMS

def _mismatch(tensor_class: TensorClass, field, closed, maps: NodeMaps):
    """The closed-form increment ``closed`` minus the oracle's remapped field
    minus ``field``, with a 1-form's components on the axis in front of the
    grid axes."""
    remapped = oracle_remap(tensor_class, field, maps)
    if isinstance(field, VectorField):
        return np.stack(
            [r.values - (o.values - f.values)
             for r, o, f in zip(closed.components, remapped.components, field.components)],
            axis=-1 - field.grid.dim)
    return closed.values - (remapped.values - field.values)


def metric_mismatch_0form(level: StudyLevel):
    f = level.scene.f0
    return _mismatch(TensorClass.ZERO_FORM, f, perturb_0form(level.batched(f), level.batch).realized, level.maps)


def metric_mismatch_nform(level: StudyLevel):
    return _mismatch(TensorClass.N_FORM, level.scene.fn, level.nform, level.maps)


def metric_mismatch_1form(level: StudyLevel):
    return _mismatch(TensorClass.ONE_FORM, level.scene.u, level.one_form, level.maps)


def metric_mismatch_nvector(level: StudyLevel):
    g = level.scene.gv
    return _mismatch(TensorClass.N_VECTOR, g, pushforward_nvector(level.batched(g), level.batch).realized,
                     level.maps)


def metric_composition(level: StudyLevel):
    grid = level.scene.grid
    roundtrip = forward_map(level.batch, level.maps.inverse)
    return grid.wrap_displacement(roundtrip - grid.points())


def metric_drift_int_fg(level: StudyLevel):
    scene = level.scene
    fh = scene.fn + level.nform
    gh = scene.gv + perturb_0form(level.batched(scene.gv), level.batch).realized
    base = integrate(scene.fn * scene.gv)
    return [np.array([value - base]) for value in member_integrals(fh * gh)]


def metric_drift_int_f2g(level: StudyLevel):
    scene = level.scene
    fh = scene.fn + level.nform
    gh = scene.gv + level.mixed_nvector
    base = integrate(scene.fn * scene.fn * scene.gv)
    return [np.array([value - base]) for value in member_integrals(fh * fh * gh)]


def metric_pairing_pointwise(level: StudyLevel):
    scene = level.scene
    pairing = (scene.fn + level.nform) * (scene.gv + level.mixed_nvector)
    return sample_at(pairing, level.maps.inverse).reshape(pairing.values.shape) - (scene.fn * scene.gv).values


def metric_vorticity_commutation(level: StudyLevel):
    """`invariants.vorticity_commutation_defect` of each member: the curl of
    its 1-form increment of u minus the pointwise n-form increment of curl u."""
    rhs = perturb_nform(level.batched(curl(level.scene.u)), level.batch, NFormMode.POINTWISE).realized
    return curl(level.one_form).values - rhs.values


# every study metric: name -> (scene dimension, scene builder, per-member defects of a level)
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
    "drift_helicity": (3, make_scene_3d,
                       lambda level: [np.array([level.scene.helicity_drift(d)]) for d in level.each_member()]),
    "drift_tsw_energy": (2, make_scene_tsw, lambda level: [e for e, _ in level.tsw_drifts]),
    "drift_tsw_momentum": (2, make_scene_tsw, lambda level: [p for _, p in level.tsw_drifts]),
}

STUDY_METRICS = tuple(_STUDY)


@dataclass
class StudyRow:
    metric: str
    dt: float
    grid_points: int
    value: float
    slope: float = float("nan")


def _member_mean_rms(defects) -> float:
    """RMS over entries of the member mean of the defects, summed in member order."""
    acc, members = None, 0
    for members, defect in enumerate(defects, 1):
        defect = np.asarray(defect, dtype=float)
        acc = defect if acc is None else acc + defect
    mean = acc / members
    return float(np.sqrt(np.mean(mean**2)))


def _study_values(metrics, dts, scene_at, n_pairs: int, seed: int, safety: float = 1.0) -> dict[str, list]:
    """Each metric's ensemble-mean defect at each dt, level by level.

    At each dt, every scene kind the metrics read is one `StudyLevel` on the
    scene ``scene_at(dt, dim, make_scene)``; its metrics run in the order
    given and share what it caches, and it is dropped before the next scene
    kind is built.
    """
    values = {metric: [] for metric in metrics}
    kinds: dict = {}
    for metric in values:
        kinds.setdefault(_STUDY[metric][:2], []).append(metric)
    for dt in dts:
        for (dim, make_scene), group in kinds.items():
            level = StudyLevel(scene_at(dt, dim, make_scene), dt, n_pairs, seed, safety)
            for metric in group:
                values[metric].append(_member_mean_rms(_STUDY[metric][2](level)))
            del level   # its cache goes before the next scene kind allocates
    return values


def _check_dts(dts) -> None:
    """Raise ValueError, naming the bad value, unless every dt is finite and
    > 0 and there are at least 3 distinct ones."""
    for dt in dts:
        if not (np.isfinite(dt) and dt > 0):
            raise ValueError(f"dt must be finite and > 0, got {dt!r}")
    if len(set(dts)) < 3:
        raise ValueError(f"a convergence study needs at least 3 distinct dt values, got {sorted(set(dts))}")


def run_study(metrics=STUDY_METRICS, dts=DEFAULT_DTS, seed: int = 0,
              n_pairs: int = 8) -> list[StudyRow]:
    """Evaluate the per-step defect metrics over co-refined (grid, dt) levels.

    Defect fields are averaged over a symmetric moment-matched ensemble
    before taking norms; see the module docstring for why.
    """
    metrics = tuple(metrics)
    if not metrics:
        raise ValueError("a convergence study needs at least one metric")
    unknown = [metric for metric in metrics if metric not in _STUDY]
    if unknown:
        raise ValueError(f"unknown metrics {unknown}; available: {list(STUDY_METRICS)}")
    _check_dts(dts)
    dts = sorted(dts, reverse=True)
    values = _study_values(metrics, dts, lambda dt, dim, make_scene: make_scene(study_grid_points(dt, dim)),
                           n_pairs, seed)
    rows: list[StudyRow] = []
    for metric in metrics:
        slope = fit_loglog_slope(dts, values[metric])
        rows += [StudyRow(metric, dt, study_grid_points(dt, _STUDY[metric][0]), value, slope)
                 for dt, value in zip(dts, values[metric])]
    return rows


def vorticity_fixed_h_study(dts=DEFAULT_DTS, n: int = 128, seed: int = 0) -> tuple[list[float], float]:
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
    _check_dts(dts)
    scene = make_scene_2d(n)
    values = _study_values(("vorticity_commutation_joint",), dts, lambda dt, dim, make_scene: scene, 8, seed,
                           safety=2.5)["vorticity_commutation_joint"]
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
    without the Monte-Carlo noise floor.  The members are stepped in batches
    of `grid.BATCH_POINTS` grid points per array and added to each level's
    mean in member order, so the means equal a member-by-member loop exactly.
    """
    for name, value in (("t_final", t_final), ("dt_coarse", dt_coarse)):
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    if int(round(t_final / dt_coarse)) < 1:
        raise ValueError(f"dt_coarse {dt_coarse!r} leaves no coarse step in t_final {t_final!r}")
    if n_levels < 1:
        raise ValueError(f"n_levels must be >= 1, got {n_levels!r}")
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
