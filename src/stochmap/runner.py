"""Batch simulation runner: seeded, reproducible, file-emitting.

Every run writes a manifest (config echo, seed, package version), one CSV per
diagnostic series, and `.fld` snapshots.  Nothing in the outputs depends on
wall-clock time, so identical config plus seed gives byte-identical files.
Ensemble members are independent trajectories with spawned seed streams,
written to member_### subdirectories.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .calculus import integrate
from .config import RunConfig
from .fldio import write_field
from .grid import Grid, NonFiniteError, TensorClass, VectorField
from .invariants import DiagnosticSeries, tsw_invariants
from .maps import StepSizeError
from .models import (
    PositivityError,
    StabilityError,
    advection_diffusion_rhs,
    check_stability,
    noise_scales,
    tsw_spde_step,
    two_step_forecast,
)
from .runner_support import build_basis, smooth_scalar, tsw_initial_state, tsw_params

OUTPUT_DIR_ENV = "STOCHMAP_OUTDIR"


class RuntimeAbort(RuntimeError):
    """A stability/positivity/step-size guard fired during the run, or the
    state went non-finite."""


@dataclass
class RunResult:
    output_dir: Path
    n_steps: int
    diagnostics: dict[str, list[str]]   # member label -> series names


def resolve_output_dir(config: RunConfig) -> Path:
    env = os.environ.get(OUTPUT_DIR_ENV)
    return Path(env) if env else Path(config.output_dir)


def run_simulation(config: RunConfig) -> RunResult:
    out_root = resolve_output_dir(config)
    out_root.mkdir(parents=True, exist_ok=True)
    (out_root / "manifest.txt").write_text(_manifest_text(config))

    grid = config.make_grid()
    seeds = np.random.SeedSequence(config.seed).spawn(config.ensemble)
    diagnostics: dict[str, list[str]] = {}
    for member in range(config.ensemble):
        label = f"member_{member:03d}" if config.ensemble > 1 else ""
        out_dir = out_root / label if label else out_root
        out_dir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seeds[member])
        series = _run_member(config, grid, rng, out_dir, member)
        diagnostics[label or "single"] = series
    return RunResult(out_root, config.n_steps, diagnostics)


def _manifest_text(config: RunConfig) -> str:
    head = (
        f"stochmap {__version__}\n"
        f"seed = {config.seed}\n"
        f"model = {config.model}\n"
        "--- config echo ---\n"
    )
    return head + (config.raw_text or "(constructed in memory)\n")


def _run_member(config: RunConfig, grid: Grid, rng: np.random.Generator,
                out_dir: Path, member: int) -> list[str]:
    basis = build_basis(grid, config)
    if config.model == "tsw":
        recorders = _run_tsw(config, grid, basis, rng, out_dir, member)
    else:  # advection, or perturbation_only on a scalar field
        recorders = _run_scalar(config, grid, basis, rng, out_dir, member,
                                advect=config.model == "advection")
    return [rec.name for rec in recorders]


def _snapshot_due(config: RunConfig, step: int) -> bool:
    if step == config.n_steps:
        return True
    return config.snapshot_interval > 0 and step % config.snapshot_interval == 0


def _march(config: RunConfig, out_dir: Path, series: list[DiagnosticSeries],
           state, advance, record, snap) -> None:
    """Step loop shared by the models: record every step and snapshot when due.

    The series are written whether the run completes or a guard aborts it, so
    an aborted run keeps the diagnostics of every step it finished.
    """
    step = 0
    try:
        record(0.0, state)
        if _snapshot_due(config, 0):
            snap(0, state)
        for step in range(1, config.n_steps + 1):
            state = advance(state)
            record(step * config.dt, state)
            if _snapshot_due(config, step):
                snap(step, state)
    except (StabilityError, PositivityError, StepSizeError, NonFiniteError) as err:
        raise RuntimeAbort(f"step {step}: {err}") from err
    finally:
        for rec in series:
            (out_dir / f"{rec.name}.csv").write_text(rec.to_csv())


def _run_tsw(config, grid, basis, rng, out_dir: Path, member: int) -> list[DiagnosticSeries]:
    state = tsw_initial_state(grid, config, np.random.default_rng(config.seed + 1000 + member))
    params = tsw_params(config)
    series = [DiagnosticSeries(name) for name in ("energy", "mass", "momentum_x", "momentum_y")]

    def record(t, s):
        e, m, (px, py) = tsw_invariants(s)
        for rec, value in zip(series, (e, m, px, py)):
            rec.append(t, value)

    def snap(step, s):
        for name, field in (("h", s.h), ("theta", s.theta),
                            ("u_x", s.u.components[0]), ("u_y", s.u.components[1])):
            write_field(out_dir / f"{name}_{step:06d}.fld", field)

    def advance(s):
        return tsw_spde_step(
            s, params, basis, config.dt, rng,
            rhs_enabled=config.rhs_enabled,
            nform_mode=config.nform_mode,
            safety=config.safety,
            c_stab=config.c_stab,
        )

    _march(config, out_dir, series, state, advance, record, snap)
    return series


def _run_scalar(config, grid, basis, rng, out_dir: Path, member: int, advect: bool) -> list[DiagnosticSeries]:
    ic_amp = config.adv_ic_amplitude if advect else config.scalar_ic_amplitude
    f = smooth_scalar(grid, np.random.default_rng(config.seed + 1000 + member),
                      offset=1.0, amplitude=ic_amp)
    if advect:
        u = VectorField.constant(grid, config.adv_velocity)
        rhs = lambda s: {"f": advection_diffusion_rhs(s["f"], u, config.adv_diffusivity)}
        assignment = {"f": TensorClass.ZERO_FORM}
        vel_extra = float(np.sqrt(sum(v * v for v in config.adv_velocity)))
        diff_extra = config.adv_diffusivity
    else:
        rhs = None
        assignment = {"f": config.scalar_tensor_class}
        vel_extra = 0.0
        diff_extra = 0.0
    if not config.rhs_enabled:
        rhs = None

    total = DiagnosticSeries("total_integral")
    l2 = DiagnosticSeries("l2_norm")

    def record(t, state):
        total.append(t, integrate(state["f"]))
        l2.append(t, float(np.sqrt(np.mean(state["f"].values**2))))

    def snap(step, state):
        write_field(out_dir / f"f_{step:06d}.fld", state["f"])

    vel_noise, diff_noise = noise_scales(basis)

    def advance(state):
        check_stability(grid, config.dt, vel_extra + vel_noise, diff_extra + diff_noise, config.c_stab)
        return two_step_forecast(
            state, rhs, assignment, basis, config.dt, rng,
            nform_mode=config.nform_mode,
            safety=config.safety,
        )

    _march(config, out_dir, [total, l2], {"f": f}, advance, record, snap)
    return [total, l2]
