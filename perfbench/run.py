"""stochmap benchmark: one workload per process, timed, checked, reported.

    python3 perfbench/run.py --workload tsw_64 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; stochmap is imported from ``src``
with no install.  The run sets up the workload, makes one untimed warm-up
call, then repeats the timed call on the same seeded inputs for about
``--seconds`` seconds of timed work, checking every call's outputs.  The last
line of standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` count timed calls, and ``metrics`` holds the end-to-end metrics
(``--trace 0``) or the per-layer metrics of a traced run (``--trace 1``).
Progress goes to standard error.  Exit status 1 means a check failed or no
call completed; 2 means the run could not start.
"""
import os

# one thread everywhere, fixed before numpy loads its BLAS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 9          # fresh interpreters timed for setup_s; the median is reported
WALL_LIMIT_S = 150.0      # no new timed call starts after this much wall time


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def probe_setup(workload: str, seed: int, workdir: Path) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(workdir)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    log(f"setup probes (s): {' '.join(f'{t:.4f}' for t in times)}")
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "stochmap" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        log(f"error: {ROOT} is not a stochmap checkout (needs src/stochmap and configs)")
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import workloads

    if args.workload not in workloads.WORKLOADS:
        log(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
        return 2
    workload = workloads.WORKLOADS[args.workload]
    workdir = HERE / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(workload, args, workdir: Path) -> int:
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        tracer.recording = True
    ctx = workload.setup(ROOT, args.seed, workdir)
    setup_self_ms = {}
    if tracer is not None:
        tracer.recording = False
        setup_self_ms = {f"{m}.{f}": tracer.self_ns[f"{m}.{f}"] / 1e6 for m, f in tracing.SETUP}
        tracer.reset()
    workload.warmup(ctx)
    setup_s = probe_setup(workload.name, args.seed, workdir) if tracer is None else None

    started = time.perf_counter()
    durations, problems = [], []
    attempted = failed = 0
    while True:
        attempted += 1
        if tracer is not None:
            tracer.keep_spans = attempted == 1
            tracer.recording = True
            tracer.begin("timed_call")
        t0 = time.perf_counter()
        try:
            result = workload.call(ctx)
        except Exception:
            failed += 1
            log(f"call {attempted} failed:\n{traceback.format_exc()}")
            result = None
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.end()
            tracer.recording = False
        if result is not None:
            durations.append(elapsed)
            try:
                found = workload.check(ctx, result)
            except Exception:
                found = [f"check raised:\n{traceback.format_exc()}"]
            problems += found
            log(f"call {attempted}: {elapsed:.4f} s, {ctx.increments / elapsed:.2f} increments/s"
                + ("" if not found else "  CHECK FAILED: " + "; ".join(found)))
        mean = (sum(durations) / len(durations)) if durations else elapsed
        if (sum(durations) + 0.5 * mean >= args.seconds
                or time.perf_counter() - started + mean > WALL_LIMIT_S):
            break
    if not durations:
        log("error: every timed call failed")
        return 1

    rate = statistics.median(ctx.increments / d for d in durations)
    if tracer is None:
        metrics = {
            "increments_per_s": (rate, "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = layer_metrics(tracer, tracing.per_layer_units(), ctx.increments * len(durations),
                                len(durations), setup_self_ms, rate)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.write_spans(out / f"spans-{workload.name}-seed{args.seed}.csv")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def layer_metrics(tracer, units, increments: int, calls: int, setup_self_ms: dict, rate: float):
    """Per-layer figures of a traced run, normalised per increment or per run."""
    values = {}
    for name, unit in units.items():
        layer, _, kind = name.rpartition(".")
        if unit == "ms/run":
            values[name] = setup_self_ms[layer]
        elif name == "traced.increments_per_s":
            values[name] = rate
        elif name == "fldio.write_field.bytes":
            values[name] = tracer.counts[name] / calls
        elif kind == "calls":
            values[name] = tracer.calls[layer] / increments
        elif kind == "self_ms":
            values[name] = tracer.self_ns[layer] / 1e6 / increments
        else:
            values[name] = tracer.counts[name] / increments
    return {name: (values[name], unit) for name, unit in units.items()}


if __name__ == "__main__":
    sys.exit(main())
