"""Show that each output check of the benchmark accepts a right answer and
rejects a wrong one.

    python3 perfbench/selfcheck.py

Runs a short 64^2 thermal shallow-water forecast and tampers with its files,
then feeds the weak-mean and order-study checks made-up study results.
Prints one line per case and exits with status 1 if any check accepts a
wrong answer or rejects a right one.
"""
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def expect(case: str, problems: list[str], should_fail: bool) -> None:
    ok = bool(problems) == should_fail
    verdict = "rejected" if problems else "accepted"
    print(f"{'ok  ' if ok else 'BAD '} {case}: {verdict}" + (f" ({problems[0]})" if problems else ""))
    if not ok:
        FAILURES.append(case)


def tsw_cases(workdir: Path) -> None:
    ctx = workloads.WORKLOADS["tsw_64"].setup(HERE.parent, 3, workdir)
    from dataclasses import replace
    from stochmap.runner import run_simulation

    config = replace(ctx.config, ensemble=1, n_steps=8, snapshot_interval=4)
    run_simulation(config)
    out = Path(config.output_dir)
    steps = [0, 4, 8]
    expect("tsw run as written", checks.check_tsw_member(out, 8, steps), False)

    mass = out / "mass.csv"
    good = mass.read_text()
    times, values = checks.read_series(mass)
    drifting = [v * (1.0 + 1e-9 * k / len(values)) for k, v in enumerate(values)]
    mass.write_text("time,mass\n" + "".join(f"{t!r},{v!r}\n" for t, v in zip(times, drifting)))
    expect("mass drifting by 1e-9", checks.check_tsw_member(out, 8, steps), True)
    mass.write_text(good)

    energy = out / "energy.csv"
    good = energy.read_text()
    times, values = checks.read_series(energy)
    values[4] *= 1.0 + 1e-8
    energy.write_text("time,energy\n" + "".join(f"{t!r},{v!r}\n" for t, v in zip(times, values)))
    expect("energy row off by 1e-8 relative", checks.check_tsw_member(out, 8, steps), True)
    energy.write_text(good)

    snap = out / "theta_000008.fld"
    raw = snap.read_bytes()
    head = b"\n".join(raw.split(b"\n", 3)[:3]) + b"\n"
    data = np.frombuffer(raw[len(head):], dtype="<f8").copy()
    data[17] = -data[17]
    snap.write_bytes(head + data.tobytes())
    expect("negative Theta in a snapshot", checks.check_tsw_member(out, 8, steps), True)


def weak_cases() -> None:
    from stochmap.convergence import matched_increment_ensemble

    w = workloads.WEAK
    n_fine = int(round(w["t_final"] / w["dt_coarse"])) << (w["n_levels"] - 1)
    paths = matched_increment_ensemble(2, w["t_final"] / n_fine, n_fine, w["n_levels"],
                                       w["members"], np.random.default_rng(0))
    level_paths = [np.stack([m[level] for m in paths]) for level in range(w["n_levels"] - 1, -1, -1)]
    ref = checks.weak_mean_reference(w["n"], w["t_final"], w["velocity"], w["amplitude"], level_paths)
    dts = [w["dt_coarse"] / 2 ** level for level in range(w["n_levels"])]

    def reported(means):
        norm = checks.rms(ref["exact"])
        return {"dts": dts,
                "errors": [checks.rms(m - ref["exact"]) / norm for m in means],
                "coupled_diffs": [checks.rms(means[i] - means[i + 1]) for i in range(len(means) - 1)]}

    expect("weak means as computed", checks.check_weak_mean(reported(ref["means"]), ref["means"], ref["exact"]), False)
    off = [m * 1.03 for m in ref["means"]]
    expect("weak means off by 3 %", checks.check_weak_mean(reported(off), off, ref["exact"]), True)
    expect("weak study reporting errors of means 3 % off",
           checks.check_weak_mean(reported(off), ref["means"], ref["exact"]), True)


def order_cases() -> None:
    dts = [1e-2, 5e-3, 2.5e-3, 1.25e-3]
    metrics = ["a", "b", "exact"]

    def rows(orders):
        out = []
        for metric, order in zip(metrics, orders):
            values = [1e-16 * (1 + i) for i in range(len(dts))] if order is None else [3.0 * dt ** order for dt in dts]
            slope = float("inf") if order is None else checks.loglog_slope(dts, values)
            out += [(metric, dt, v, slope) for dt, v in zip(dts, values)]
        return out

    expect("order study at slope 2", checks.check_order_rows(rows([2.0, 2.0, None]), metrics, dts), False)
    expect("order study with one slope at 1.0", checks.check_order_rows(rows([2.0, 1.0, None]), metrics, dts), True)
    expect("order study missing a metric", checks.check_order_rows(rows([2.0, 2.0, None])[4:], metrics, dts), True)


def main() -> int:
    workdir = HERE / "work" / f"selfcheck-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tsw_cases(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    weak_cases()
    order_cases()
    print("all checks behave" if not FAILURES else f"{len(FAILURES)} case(s) misjudged")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
