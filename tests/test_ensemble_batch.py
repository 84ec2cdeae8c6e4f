"""An ensemble run steps its members in batches (`grid.BATCH_POINTS` grid
points per array, 4 members at 64^2).  Every file of a completed run equals
a member-by-member loop written here with one grid-shaped step call per
member and step, and an aborting batch names its member by its ensemble
index and keeps each member's diagnostics through the last good step.
"""
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from stochmap.calculus import integrate
from stochmap.config import load_config
from stochmap.fldio import write_field
from stochmap.grid import NonFiniteError, TensorClass, VectorField
from stochmap.invariants import DiagnosticSeries, tsw_invariants
from stochmap.maps import StepSizeError
from stochmap.models import (
    PositivityError,
    StabilityError,
    advection_diffusion_rhs,
    check_stability,
    tsw_spde_step,
    two_step_forecast,
)
from stochmap.runner import RuntimeAbort, run_simulation
from stochmap.runner_support import build_basis, smooth_scalar, tsw_initial_state, tsw_params

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GUARDS = (StabilityError, PositivityError, StepSizeError, NonFiniteError)


def _due(cfg, step):
    return step == cfg.n_steps or (cfg.snapshot_interval > 0 and step % cfg.snapshot_interval == 0)


def _tsw_member(cfg, grid, basis, rng, ic_rng):
    series = [DiagnosticSeries(n) for n in ("energy", "mass", "momentum_x", "momentum_y")]

    def record(t, s):
        e, m, (px, py) = tsw_invariants(s)
        for rec, value in zip(series, (e, m, px, py)):
            rec.append(t, value)

    def fields(s):
        return {"h": s.h, "theta": s.theta, "u_x": s.u.components[0], "u_y": s.u.components[1]}

    def advance(s):
        return tsw_spde_step(s, tsw_params(cfg), basis, cfg.dt, rng, rhs_enabled=cfg.rhs_enabled,
                             nform_mode=cfg.nform_mode, safety=cfg.safety, c_stab=cfg.c_stab)

    return series, lambda: tsw_initial_state(grid, cfg, ic_rng), record, fields, advance


def _scalar_member(cfg, grid, basis, rng, ic_rng):
    advect = cfg.model == "advection"
    amp = cfg.adv_ic_amplitude if advect else cfg.scalar_ic_amplitude
    assignment = {"f": TensorClass.ZERO_FORM if advect else cfg.scalar_tensor_class}
    vel, diff = basis.scales
    rhs = None
    if advect and cfg.rhs_enabled:
        u = VectorField.constant(grid, cfg.adv_velocity)
        rhs = lambda s: {"f": advection_diffusion_rhs(s["f"], u, cfg.adv_diffusivity)}
        vel += float(np.sqrt(sum(v * v for v in cfg.adv_velocity)))
        diff += cfg.adv_diffusivity
    series = [DiagnosticSeries("total_integral"), DiagnosticSeries("l2_norm")]

    def record(t, s):
        series[0].append(t, integrate(s["f"]))
        series[1].append(t, float(np.sqrt(np.mean(s["f"].values ** 2))))

    def advance(s):
        check_stability(grid, cfg.dt, vel, diff, cfg.c_stab)
        return two_step_forecast(s, rhs, assignment, basis, cfg.dt, rng,
                                 nform_mode=cfg.nform_mode, safety=cfg.safety)

    initial = lambda: {"f": smooth_scalar(grid, ic_rng, offset=1.0, amplitude=amp)}
    return series, initial, record, lambda s: {"f": s["f"]}, advance


def run_member(cfg, member: int, out_dir: Path):
    """Ensemble member ``member`` of ``cfg`` run on its own, one grid-shaped
    step call per step, with its files written to ``out_dir``.  Returns the
    (step, message) of the guard that stopped it, or None."""
    grid = cfg.make_grid()
    basis = build_basis(grid, cfg)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(cfg.ensemble)[member])
    ic_rng = np.random.default_rng(cfg.seed + 1000 + member)
    build = _tsw_member if cfg.model == "tsw" else _scalar_member
    series, initial, record, fields, advance = build(cfg, grid, basis, rng, ic_rng)
    out_dir.mkdir(parents=True, exist_ok=True)
    step, failure = 0, None
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            state = initial()
            for step in range(cfg.n_steps + 1):
                if step:
                    state = advance(state)
                record(step * cfg.dt, state)
                if _due(cfg, step):
                    for name, field in fields(state).items():
                        write_field(out_dir / f"{name}_{step:06d}.fld", field)
    except GUARDS as err:
        failure = (step, str(err))
    for rec in series:
        (out_dir / f"{rec.name}.csv").write_text(rec.to_csv())
    return failure


def run_files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "manifest.txt"}


def load(name, tmp_path, overrides):
    return load_config(CONFIGS / name, overrides + [f"output.directory={tmp_path / 'run'}"])


@pytest.mark.parametrize("ensemble", [4, 6])   # one full batch; a full batch and a ragged one
def test_tsw_ensemble_files_equal_a_member_by_member_loop(tmp_path, ensemble):
    cfg = load("tsw.cfg", tmp_path, [f"run.ensemble={ensemble}", "run.n_steps=4", "run.snapshot_interval=3"])
    assert cfg.make_grid().members_per_batch == 4
    run_simulation(cfg)
    for k in range(ensemble):
        assert run_member(cfg, k, tmp_path / "ref" / f"member_{k:03d}") is None
    got, want = run_files(tmp_path / "run"), run_files(tmp_path / "ref")
    assert len(want) == ensemble * 4 * 4   # 4 series and 4 fields at steps 0, 3 and 4
    assert got.keys() == want.keys()
    for name in want:
        assert got[name] == want[name], name


@pytest.mark.parametrize("model, tensor_class", [
    ("advection", "zero_form"),
    ("perturbation_only", "zero_form"),
    ("perturbation_only", "n_form"),
    ("perturbation_only", "n_vector"),
])
def test_scalar_ensemble_files_equal_a_member_by_member_loop(tmp_path, model, tensor_class):
    cfg = load("advection.cfg", tmp_path, ["run.ensemble=3", "run.n_steps=5", "run.snapshot_interval=2",
                                           f"run.model={model}", f"scalar.tensor_class={tensor_class}"])
    run_simulation(cfg)
    for k in range(3):
        assert run_member(cfg, k, tmp_path / "ref" / f"member_{k:03d}") is None
    got, want = run_files(tmp_path / "run"), run_files(tmp_path / "ref")
    assert len(want) == 3 * (2 + 4)
    assert got == want


def test_first_member_of_an_ensemble_equals_the_single_run_of_its_seed(tmp_path):
    single = load_config(CONFIGS / "tsw.cfg", ["run.n_steps=3", f"output.directory={tmp_path / 'one'}"])
    run_simulation(single)
    run_simulation(load("tsw.cfg", tmp_path, ["run.ensemble=4", "run.n_steps=3"]))
    assert run_files(tmp_path / "run" / "member_000") == run_files(tmp_path / "one")


def _assert_batch_abort(tmp_path, cfg, batch, expect_member):
    """The run of ``cfg`` aborts in ``batch`` (its ensemble indices) as the
    member-by-member loop predicts: at the first step N that fails a member
    of the batch, naming the first such member; every member of the batch
    keeps N rows of each series, earlier batches are complete, and later
    batches never start.  Returns the abort message."""
    failures = {k: run_member(cfg, k, tmp_path / "ref" / f"member_{k:03d}") for k in batch}
    step = min(f[0] for f in failures.values() if f is not None)
    member = min(k for k, f in failures.items() if f is not None and f[0] == step)
    assert member == expect_member
    with pytest.raises(RuntimeAbort) as info:
        run_simulation(cfg)
    assert str(info.value) == f"step {step}: member {member}: {failures[member][1]}"
    out = tmp_path / "run"
    names = ("energy.csv", "mass.csv", "momentum_x.csv", "momentum_y.csv")
    for k in range(cfg.ensemble):
        member_dir = out / f"member_{k:03d}"
        if k > max(batch):
            assert not member_dir.exists()
            continue
        rows = cfg.n_steps + 1 if k < min(batch) else step
        for name in names:
            lines = (member_dir / name).read_text().splitlines()
            assert len(lines) == 1 + rows, (k, name)
    return str(info.value)


def test_step_size_abort_in_a_later_batch_names_its_ensemble_member(tmp_path):
    # the second batch (members 4 and 5) fails first at step 4, in member 5;
    # the first batch completes its 12 steps
    cfg = load("tsw.cfg", tmp_path, ["run.ensemble=6", "noise.safety=0.35", "run.seed=5", "run.n_steps=12"])
    message = _assert_batch_abort(tmp_path, cfg, [4, 5], expect_member=5)
    assert message.startswith("step 4: member 5: max displacement")


def test_step_size_abort_in_the_first_batch_stops_the_run(tmp_path):
    # member 3 fails at step 6, so members 4 and 5 never start
    cfg = load("tsw.cfg", tmp_path, ["run.ensemble=6", "noise.safety=0.35", "run.seed=6", "run.n_steps=12"])
    message = _assert_batch_abort(tmp_path, cfg, [0, 1, 2, 3], expect_member=3)
    assert message.startswith("step 6: member 3: max displacement")


def test_positivity_abort_names_its_ensemble_member(tmp_path):
    # a long step over an initial height that nearly touches zero: member 1's
    # height goes negative at step 28, before any other member fails a guard
    cfg = load("tsw.cfg", tmp_path, ["run.ensemble=4", "run.dt=2e-2", "tsw.ic_amplitude=0.99",
                                     "noise.safety=4", "run.seed=3", "run.n_steps=30"])
    message = _assert_batch_abort(tmp_path, cfg, [0, 1, 2, 3], expect_member=1)
    assert message.startswith("step 28: member 1: layer height lost positivity")


# measured: 12.55 arrays of 128 KB above what is live before the step.  The
# high-water is the 0-form of u_y: xi (2), the new h and Theta (2), the
# post-Euler u (2), the new u_x (1) and the five arrays of the assembly, plus
# eta, the guards' maxima and small objects.
BATCHED_STEP_ARRAYS = 12.6


def test_a_batched_tsw_step_allocates_at_most_its_measured_arrays():
    # numpy reports its allocations to tracemalloc, so the peak is deterministic;
    # it bounds the step's share of the tsw_64 benchmark's peak RSS
    cfg = load_config(CONFIGS / "tsw.cfg", [])
    grid = cfg.make_grid()
    basis = build_basis(grid, cfg)
    rngs = [np.random.default_rng(k) for k in range(4)]
    state = tsw_initial_state(grid, cfg, [np.random.default_rng(1000 + k) for k in range(4)])

    def step(s):
        return tsw_spde_step(s, tsw_params(cfg), basis, cfg.dt, rngs,
                             nform_mode=cfg.nform_mode, safety=cfg.safety, c_stab=cfg.c_stab)

    state = step(step(state))   # the basis builds its tables on first use
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        state = step(state)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    array = 4 * grid.n_points * 8
    assert state.h.batch_shape == (4,)
    assert peak <= (BATCHED_STEP_ARRAYS + 1) * array, peak / array
