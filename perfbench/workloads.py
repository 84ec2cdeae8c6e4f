"""The benchmark's workloads: set-up, warm-up, the timed call and its check.

Every workload calls stochmap's public functions only.  Inputs come from the
workload seed alone, and every timed call of one run repeats the same inputs,
so the rounds of a run must also write byte-identical files.
"""
from __future__ import annotations

import hashlib
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks


@dataclass
class Context:
    seed: int
    workdir: Path
    config: Any = None
    increments: int = 0          # map increments applied by one timed call
    state: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[Path, int, Path], Context]
    warmup: Callable[[Context], None]
    call: Callable[[Context], Any]
    check: Callable[[Context, Any], list[str]]


# ---------------------------------------------------------------------------
# thermal shallow water forecasts through the batch runner

def _tsw_setup(overrides: list[str]):
    def setup(root: Path, seed: int, workdir: Path) -> Context:
        import stochmap  # noqa: F401  (the import is part of the set-up cost)
        from stochmap.config import load_config
        from stochmap.runner_support import build_basis, tsw_initial_state

        config = load_config(root / "configs" / "tsw.cfg",
                             overrides + [f"run.seed={seed}", f"output.directory={workdir / 'run'}"])
        # built for their set-up cost only: run_simulation builds its own per member
        grid = config.make_grid()
        build_basis(grid, config)
        tsw_initial_state(grid, config, np.random.default_rng(config.seed + 1000))
        return Context(seed, workdir, config, config.ensemble * config.n_steps)
    return setup


def _tsw_warmup(ctx: Context) -> None:
    from dataclasses import replace
    from stochmap.runner import run_simulation

    run_simulation(replace(ctx.config, n_steps=2, output_dir=str(ctx.workdir / "warmup")))
    shutil.rmtree(ctx.workdir / "warmup")


def _tsw_call(ctx: Context):
    from stochmap.runner import run_simulation

    return run_simulation(ctx.config)


def _tsw_check(ctx: Context, result) -> list[str]:
    config = ctx.config
    out = Path(result.output_dir)
    steps = [s for s in range(config.n_steps + 1)
             if s == config.n_steps or (config.snapshot_interval and s % config.snapshot_interval == 0)]
    members = ([out / f"member_{m:03d}" for m in range(config.ensemble)]
               if config.ensemble > 1 else [out])
    problems = []
    for member_dir in members:
        problems += checks.check_tsw_member(member_dir, config.n_steps, steps)
    digest = _tree_digest(out)
    first = ctx.state.setdefault("digest", digest)
    if digest != first:
        problems.append("outputs differ from the first round's on identical inputs")
    shutil.rmtree(out)
    return problems


def _tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(directory)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# the two studies behind `stochmap verify`; their set-up is that of verify

def _study_setup(increments_of: Callable[[], int]):
    def setup(root: Path, seed: int, workdir: Path) -> Context:
        import stochmap  # noqa: F401
        from stochmap.config import load_config
        from stochmap.runner_support import build_basis

        config = load_config(root / "configs" / "verify.cfg", [f"run.seed={seed}"])
        build_basis(config.make_grid(), config)
        return Context(seed, workdir, config, increments_of())
    return setup


WEAK = dict(n=64, t_final=0.1, dt_coarse=2.5e-3, n_levels=3, members=64,
            amplitude=0.4, velocity=(1.0, 0.5))


def _weak_steps_per_member() -> int:
    coarse = int(round(WEAK["t_final"] / WEAK["dt_coarse"]))
    return sum(coarse << level for level in range(WEAK["n_levels"]))


def _weak_warmup(ctx: Context) -> None:
    from stochmap.convergence import weak_advection_study

    weak_advection_study(**{**WEAK, "members": 16, "t_final": 2 * WEAK["dt_coarse"]}, seed=ctx.seed)


def _weak_call(ctx: Context):
    from stochmap.convergence import weak_advection_study

    return weak_advection_study(**WEAK, seed=ctx.seed)


def _weak_check(ctx: Context, result) -> list[str]:
    if "reference" not in ctx.state:
        from stochmap.convergence import matched_increment_ensemble

        levels = WEAK["n_levels"]
        n_fine = int(round(WEAK["t_final"] / WEAK["dt_coarse"])) << (levels - 1)
        paths = matched_increment_ensemble(2, WEAK["t_final"] / n_fine, n_fine, levels,
                                           WEAK["members"], np.random.default_rng(ctx.seed))
        level_paths = [np.stack([member[level] for member in paths])
                       for level in range(levels - 1, -1, -1)]
        ctx.state["reference"] = checks.weak_mean_reference(
            WEAK["n"], WEAK["t_final"], WEAK["velocity"], WEAK["amplitude"], level_paths)
    ref = ctx.state["reference"]
    return checks.check_weak_mean(result, ref["means"], ref["exact"])


N_PAIRS = 8   # run_study's default symmetric ensemble: 2 * N_PAIRS increments per (metric, dt)


def _order_increments() -> int:
    from stochmap.convergence import DEFAULT_DTS, STUDY_METRICS

    return len(STUDY_METRICS) * len(DEFAULT_DTS) * 2 * N_PAIRS


def _order_warmup(ctx: Context) -> None:
    from stochmap.convergence import DEFAULT_DTS, run_study

    run_study(metrics=("mismatch_1form", "pairing_pointwise", "drift_helicity", "drift_tsw_energy"),
              dts=DEFAULT_DTS[:3], seed=ctx.seed, n_pairs=N_PAIRS)


def _order_call(ctx: Context):
    from stochmap.convergence import DEFAULT_DTS, STUDY_METRICS, run_study

    return run_study(STUDY_METRICS, DEFAULT_DTS, seed=ctx.seed, n_pairs=N_PAIRS)


def _order_check(ctx: Context, rows) -> list[str]:
    from stochmap.convergence import DEFAULT_DTS, STUDY_METRICS

    return checks.check_order_rows([(r.metric, r.dt, r.value, r.slope) for r in rows],
                                   STUDY_METRICS, sorted(DEFAULT_DTS, reverse=True))


WORKLOADS = {
    w.name: w for w in (
        Workload("tsw_64", _tsw_setup(["run.ensemble=4"]),
                 _tsw_warmup, _tsw_call, _tsw_check),
        # dt scales with h^2 so the displacement guard keeps the margin tsw.cfg has at 64^2
        Workload("tsw_256", _tsw_setup(["grid.points=256 256", "run.dt=6.25e-5",
                                        "run.n_steps=32", "run.snapshot_interval=16"]),
                 _tsw_warmup, _tsw_call, _tsw_check),
        Workload("weak_mean", _study_setup(lambda: WEAK["members"] * _weak_steps_per_member()),
                 _weak_warmup, _weak_call, _weak_check),
        Workload("order_study", _study_setup(_order_increments),
                 _order_warmup, _order_call, _order_check),
    )
}
