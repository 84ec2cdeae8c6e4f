"""Output checks for the benchmark workloads.

Each check recomputes what it compares against with plain numpy, from the
files a run wrote or from the figures a study returned; none of them calls
stochmap.  A check returns a list of problems, empty when the output is right.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

MASS_RTOL = 1e-12          # flux-form mass is exact up to round-off
INVARIANT_RTOL = 1e-11     # CSV row vs recomputation, relative to the L1 size of the integrand
WEAK_ERROR_MAX = 0.02      # relative L2 error of every level's ensemble mean
WEAK_AGREE_ATOL = 1e-9     # reported vs recomputed error and coupled difference
ORDER_SLOPE_MIN = 1.4      # every order-study metric must decay faster than dt^1.4
ROUNDOFF_FLOOR = 1e-13     # a defect below this at every dt is exact, not decaying


# ---------------------------------------------------------------------------
# files written by a simulation run

def read_series(path: Path) -> tuple[list[float], list[float]]:
    """(times, values) of one diagnostic CSV: a `time,<name>` header, then rows."""
    lines = path.read_text().splitlines()
    if len(lines) < 2 or not lines[0].startswith("time,"):
        raise ValueError(f"{path}: not a diagnostic series")
    times, values = [], []
    for line in lines[1:]:
        t, v = line.split(",")
        times.append(float(t))
        values.append(float(v))
    return times, values


def read_fld(path: Path) -> tuple[np.ndarray, tuple[float, ...]]:
    """(values, extents) of a snapshot: three ASCII header lines, then <f8 data."""
    raw = path.read_bytes()
    head = raw.split(b"\n", 3)
    dim = int(head[0])
    shape = tuple(int(tok) for tok in head[1].split())
    extents = tuple(float(tok) for tok in head[2].split())
    data = np.frombuffer(head[3], dtype="<f8")
    if len(shape) != dim or data.size != math.prod(shape):
        raise ValueError(f"{path}: header and payload disagree")
    return data.reshape(shape), extents


def check_mass(values: list[float]) -> list[str]:
    """Total mass is constant to |M - M0| / M0 < MASS_RTOL at every step."""
    m0 = values[0]
    worst = max(abs(m - m0) for m in values) / abs(m0)
    if not worst < MASS_RTOL:
        return [f"mass drifts by {worst:.3e} relative (limit {MASS_RTOL:.0e})"]
    return []


def recompute_invariants(h, theta, ux, uy, extents) -> dict[str, tuple[float, float]]:
    """(integral, L1 size of the integrand) of energy, mass and momentum."""
    cell = math.prod(extents) / h.size
    integrands = {
        "energy": 0.5 * (h * (ux * ux + uy * uy) + h * h * theta),
        "mass": h,
        "momentum_x": h * ux,
        "momentum_y": h * uy,
    }
    return {name: (float(v.sum()) * cell, float(np.abs(v).sum()) * cell)
            for name, v in integrands.items()}


def check_tsw_member(out_dir: Path, n_steps: int, snapshot_steps: list[int]) -> list[str]:
    """Check one member directory of a thermal shallow-water run."""
    problems = []
    series = {name: read_series(out_dir / f"{name}.csv")[1]
              for name in ("energy", "mass", "momentum_x", "momentum_y")}
    for name, values in series.items():
        if len(values) != n_steps + 1:
            problems.append(f"{out_dir.name}/{name}.csv has {len(values)} rows, expected {n_steps + 1}")
    if problems:
        return problems
    problems += check_mass(series["mass"])
    for step in snapshot_steps:
        fields = {}
        for name in ("h", "theta", "u_x", "u_y"):
            fields[name], extents = read_fld(out_dir / f"{name}_{step:06d}.fld")
        for name in ("h", "theta"):
            if not fields[name].min() > 0.0:
                problems.append(f"step {step}: {name} not positive (min {fields[name].min():.3e})")
        got = recompute_invariants(fields["h"], fields["theta"], fields["u_x"], fields["u_y"], extents)
        for name, (value, size) in got.items():
            written = series[name][step]
            if not abs(written - value) <= INVARIANT_RTOL * size:
                problems.append(f"step {step}: {name} CSV {written!r} vs snapshots {value!r}")
    return problems


# ---------------------------------------------------------------------------
# weak-mean study: the scheme and the exact mean, both in Fourier space

def weak_mean_reference(n: int, t_final: float, velocity, amplitude: float,
                        level_paths: list[np.ndarray]) -> dict:
    """Ensemble means of the scheme and the exact mean, computed apart from stochmap.

    The study advects f0 = 1 + sin x cos y + 0.5 cos 2y + 0.3 sin(x + y) with a
    constant velocity and two constant noise modes (amplitude along x and
    along y).  On the periodic grid every step of that scheme is diagonal in
    Fourier space: the Euler update multiplies coefficient k by
    1 - i dt u.kt, and the 0-form perturbation by
    1 + i sum_j (e_j.kt) eta_j - (dt/2) sum_j (e_j.kt)^2, where
    kt = sin(k h)/h is the centered-difference symbol.  The exact mean
    multiplies by exp((-i u.k - (1/2) sum_j (e_j.k)^2) t).

    ``level_paths[l]`` holds the Brownian increments of level l, coarsest
    first, with shape (members, steps, 2).  Returns the per-level ensemble
    means and the exact mean.
    """
    x = np.arange(n) * (2.0 * np.pi / n)
    xx, yy = np.meshgrid(x, x, indexing="ij")
    f0 = 1.0 + np.sin(xx) * np.cos(yy) + 0.5 * np.cos(2 * yy) + 0.3 * np.sin(xx + yy)
    f0_hat = np.fft.fft2(f0)
    live = np.abs(f0_hat) > 1e-9 * np.abs(f0_hat).max()
    k = np.fft.fftfreq(n, d=1.0 / n)
    kx, ky = (a[live] for a in np.meshgrid(k, k, indexing="ij"))
    h = 2.0 * np.pi / n
    ktx, kty = np.sin(kx * h) / h, np.sin(ky * h) / h
    e_dot_kt = amplitude * np.stack([ktx, kty])          # (modes, live)
    e_dot_k = amplitude * np.stack([kx, ky])

    exact_hat = np.zeros_like(f0_hat)
    exact_hat[live] = f0_hat[live] * np.exp(
        (-1j * (velocity[0] * kx + velocity[1] * ky) - 0.5 * (e_dot_k ** 2).sum(axis=0)) * t_final)
    exact = np.real(np.fft.ifft2(exact_hat))

    means = []
    for etas in level_paths:
        members, steps, _ = etas.shape
        dt = t_final / steps
        euler = 1.0 - 1j * dt * (velocity[0] * ktx + velocity[1] * kty)
        damp = 1.0 - 0.5 * dt * (e_dot_kt ** 2).sum(axis=0)
        coeff = np.ones((members, kx.size), dtype=complex)
        for s in range(steps):
            coeff *= euler * (damp + 1j * (etas[:, s, :] @ e_dot_kt))
        mean_hat = np.zeros_like(f0_hat)
        mean_hat[live] = f0_hat[live] * coeff.mean(axis=0)
        means.append(np.real(np.fft.ifft2(mean_hat)))
    return {"means": means, "exact": exact}


def rms(a: np.ndarray) -> float:
    return float(np.sqrt(np.mean(a * a)))


def loglog_slope(dts, values) -> float:
    x = np.log(np.asarray(dts, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    x = x - x.mean()
    return float((x * (y - y.mean())).sum() / (x * x).sum())


def check_weak_mean(reported: dict, means: list[np.ndarray], exact: np.ndarray) -> list[str]:
    """Every level's mean is within WEAK_ERROR_MAX of the exact mean, and the
    study's reported errors and coupled differences are those of the
    recomputed means.

    The slope of the coupled differences is not gated: at 64 members it
    falls below 0.8 on about 15 % of seeds (and at 256 members on about 4 %)
    through Monte-Carlo noise alone, so no fixed threshold holds for every
    seed.  Checking the differences themselves covers the same output.
    """
    problems = []
    ref = rms(exact)
    errors = [rms(m - exact) / ref for m in means]
    diffs = [rms(means[i] - means[i + 1]) for i in range(len(means) - 1)]
    for level, err in enumerate(errors):
        if not err < WEAK_ERROR_MAX:
            problems.append(f"level {level}: mean error {err:.4f} (limit {WEAK_ERROR_MAX})")
    for name, ours in (("errors", errors), ("coupled_diffs", diffs)):
        theirs = list(reported[name])
        if len(theirs) != len(ours) or any(abs(a - b) > WEAK_AGREE_ATOL for a, b in zip(theirs, ours)):
            problems.append(f"reported {name} {theirs} disagree with recomputed {ours}")
    return problems


# ---------------------------------------------------------------------------
# order-of-accuracy study

def check_order_rows(rows: list[tuple[str, float, float, float]], metrics, dts) -> list[str]:
    """rows are (metric, dt, value, reported slope).  Every metric is present at
    every dt, and its slope, refitted here, exceeds ORDER_SLOPE_MIN unless the
    defect sits at the round-off floor at every dt."""
    problems = []
    by_metric: dict[str, dict[float, tuple[float, float]]] = {}
    for metric, dt, value, slope in rows:
        by_metric.setdefault(metric, {})[dt] = (value, slope)
    if sorted(by_metric) != sorted(metrics):
        problems.append(f"metrics {sorted(by_metric)} != expected {sorted(metrics)}")
    for metric, table in by_metric.items():
        if sorted(table) != sorted(dts):
            problems.append(f"{metric}: dts {sorted(table)} != expected {sorted(dts)}")
            continue
        values = [table[dt][0] for dt in dts]
        reported = table[dts[0]][1]
        if max(values) < ROUNDOFF_FLOOR and min(values) >= 0.0:
            continue
        if min(values) <= 0.0:
            problems.append(f"{metric}: non-positive defect {min(values)!r}")
            continue
        slope = loglog_slope(dts, values)
        if not slope > ORDER_SLOPE_MIN:
            problems.append(f"{metric}: refitted slope {slope:.3f} (limit {ORDER_SLOPE_MIN})")
        if not abs(slope - reported) <= 1e-9 * max(1.0, abs(slope)):
            problems.append(f"{metric}: reported slope {reported!r} vs refitted {slope!r}")
    return problems
