"""Batch simulation runner: seeded, reproducible, file-emitting.

Every run writes a manifest (config echo, seed, package, Python and numpy
versions), one CSV per diagnostic series, and `.fld` snapshots.  Nothing in
the outputs depends on wall-clock time, so identical config plus seed gives
byte-identical files.
Ensemble members are independent trajectories with spawned seed streams,
written to member_### subdirectories.  `_march` is the one step loop of
every model; a model (`_tsw_model`, `_scalar_model`) only describes its state.

The members are stepped in batches of `grid.BATCH_POINTS` grid points per
array (`Grid.members_per_batch`: 4 members at 64^2, one from 128^2 up): one
step call per batch, on fields with a leading member axis, or on grid-shaped
fields for a batch of one.  Each member keeps its own seed stream, draws its
eta in member order, and is recorded and written from its own view of the
batch, so every file equals the member-by-member run byte for byte.

A batch aborts as a whole at the first step N at which a guard fails on one
of its members.  The message names that member by its ensemble index
(``step N: member k: ...``).  Every member of the batch keeps its CSVs
through step N-1, the earlier batches have completed, and the later
batches never start.
"""
from __future__ import annotations

import os
import platform
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .calculus import integrate
from .config import RunConfig
from .fldio import write_field
from .grid import NonFiniteError, TensorClass, VectorField, named_field, stack_members
from .invariants import DiagnosticSeries, tsw_invariants
from .maps import StepSizeError
from .models import (
    PositivityError,
    StabilityError,
    advection_diffusion_rhs,
    check_stability,
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
    basis = build_basis(grid, config)   # one per run: members share its geometry and inverse
    seeds = np.random.SeedSequence(config.seed).spawn(config.ensemble)
    labels = [f"member_{k:03d}" for k in range(config.ensemble)] if config.ensemble > 1 else [""]
    model = _tsw_model if config.model == "tsw" else _scalar_model
    diagnostics: dict[str, list[str]] = {}
    for first in range(0, config.ensemble, grid.members_per_batch):
        members = range(first, min(first + grid.members_per_batch, config.ensemble))
        batch = _Batch(members, [np.random.default_rng(seeds[k]) for k in members],
                       [out_root / labels[k] for k in members], config.ensemble > 1)
        for out_dir in batch.out_dirs:
            out_dir.mkdir(parents=True, exist_ok=True)
        names, *steps = model(config, grid, basis, batch)
        _march(config, batch, names, *steps)
        diagnostics.update((labels[k] or "single", list(names)) for k in members)
    return RunResult(out_root, config.n_steps, diagnostics)


@dataclass(frozen=True)
class _Batch:
    """Ensemble members stepped together: one member on grid-shaped arrays,
    several as one array batched over them."""

    members: range                  # their ensemble indices
    rngs: list[np.random.Generator]
    out_dirs: list[Path]
    in_ensemble: bool               # a failure names its member

    def describe(self, err: Exception) -> str:
        """The message of a guard error; in an ensemble, it names the failing
        member by its ensemble index.  A batch-wide check that names no
        member fails on the batch's first."""
        if not self.in_ensemble:
            return str(err)
        member = self.members[getattr(err, "member", None) or 0]
        return f"member {member}: {getattr(err, 'detail', str(err))}"


def _one_or_all(items: list):
    """The one member's item, or the list of every member's: a batch of one
    member steps grid-shaped arrays."""
    return items[0] if len(items) == 1 else items


def _manifest_text(config: RunConfig) -> str:
    head = (
        f"stochmap {__version__}\n"
        f"seed = {config.seed}\n"
        f"model = {config.model}\n"
        f"python = {platform.python_version()}\n"
        f"numpy = {np.__version__}\n"
        "--- config echo ---\n"
    )
    return head + (config.raw_text or "(constructed in memory)\n")


def _snapshot_due(config: RunConfig, step: int) -> bool:
    if step == config.n_steps:
        return True
    return config.snapshot_interval > 0 and step % config.snapshot_interval == 0


def _march(config: RunConfig, batch: _Batch, names, initial, advance, values, fields) -> None:
    """Step, record every step (step 0 included), and write each due snapshot
    member by member.  A model gives its series ``names``, ``initial()``,
    ``advance(state)``, ``values(state)``, one tuple per member in the order
    of ``names``, and ``fields(state)``, the {file stem: field} map to write.

    The initial state is built inside the guarded region, so a guard that
    fires on it aborts the run at step 0.  Overflow there is silent: the
    finiteness scan of each step's fields is the one report, and it carries
    the step.  The series, one list per member, are written whether the
    batch completes or a guard aborts it, so every member of an aborted
    batch keeps the diagnostics of every step the batch finished.
    """
    series = [[DiagnosticSeries(name) for name in names] for _ in batch.members]
    step = 0
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            state = initial()
            for step in range(config.n_steps + 1):
                if step:
                    state = advance(state)
                t = step * config.dt   # one float object, shared by every series
                for recs, row in zip(series, values(state)):
                    for rec, value in zip(recs, row):
                        rec.append(t, value)
                if _snapshot_due(config, step):
                    for name, field in fields(state).items():
                        for out_dir, member in zip(batch.out_dirs, field.members()):
                            write_field(out_dir / f"{name}_{step:06d}.fld", member)
                    del field, member   # else they keep a snapshot's array alive through later steps
    except (StabilityError, PositivityError, StepSizeError, NonFiniteError) as err:
        raise RuntimeAbort(f"step {step}: {batch.describe(err)}") from err
    finally:
        for out_dir, member_series in zip(batch.out_dirs, series):
            for rec in member_series:
                (out_dir / f"{rec.name}.csv").write_text(rec.to_csv())


def _tsw_model(config, grid, basis, batch: _Batch):
    ic_rngs = [np.random.default_rng(config.seed + 1000 + k) for k in batch.members]
    initial = partial(tsw_initial_state, grid, config, _one_or_all(ic_rngs))
    params = tsw_params(config)

    def values(s):
        rows = tsw_invariants(s)
        return [(e, m, px, py) for e, m, (px, py) in (rows if s.h.batch_shape else [rows])]

    def fields(s):
        return {"h": s.h, "theta": s.theta, "u_x": s.u.components[0], "u_y": s.u.components[1]}

    def advance(s):
        return tsw_spde_step(
            s, params, basis, config.dt, _one_or_all(batch.rngs),
            rhs_enabled=config.rhs_enabled,
            nform_mode=config.nform_mode,
            safety=config.safety,
            c_stab=config.c_stab,
        )

    return ("energy", "mass", "momentum_x", "momentum_y"), initial, advance, values, fields


def _scalar_model(config, grid, basis, batch: _Batch):
    advect = config.model == "advection"   # else perturbation_only on a scalar field
    ic_amp = config.adv_ic_amplitude if advect else config.scalar_ic_amplitude
    assignment = {"f": TensorClass.ZERO_FORM if advect else config.scalar_tensor_class}
    rhs = None
    vel, diff = basis.scales   # the stability bound counts the model only when it runs
    if advect and config.rhs_enabled:
        u = VectorField.constant(grid, config.adv_velocity)
        rhs = lambda s: {"f": named_field("f", advection_diffusion_rhs, s["f"], u, config.adv_diffusivity)}
        vel += float(np.sqrt(sum(v * v for v in config.adv_velocity)))
        diff += config.adv_diffusivity

    def initial():
        fields = [smooth_scalar(grid, np.random.default_rng(config.seed + 1000 + k), offset=1.0, amplitude=ic_amp)
                  for k in batch.members]
        return {"f": fields[0] if len(fields) == 1 else stack_members(fields)}

    def values(state):
        return [(integrate(f), float(np.sqrt(np.mean(f.values**2)))) for f in state["f"].members()]

    def advance(state):
        check_stability(grid, config.dt, vel, diff, config.c_stab)
        return two_step_forecast(
            state, rhs, assignment, basis, config.dt, _one_or_all(batch.rngs),
            nform_mode=config.nform_mode,
            safety=config.safety,
        )

    return ("total_integral", "l2_norm"), initial, advance, values, lambda state: {"f": state["f"]}
