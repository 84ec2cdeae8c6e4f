"""Minor page faults and system time per timed call of a benchmark workload.

    python3 tools/fault_probe.py --workload tsw_256 --seed 1 --calls 5

Run from the root of a source checkout.  It sets the workload up as
``perfbench/run.py`` does (one thread, stochmap from ``src``, one untimed
warm-up call), then makes ``--calls`` calls and reads ``getrusage`` around
each: minor faults (``ru_minflt``), system and user CPU seconds and wall
seconds.  It does not check the outputs; ``perfbench/run.py`` does.  The last
line of standard output is one JSON object with the per-call lists.
"""
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--calls", type=int, default=5)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workdir = ROOT / "perfbench" / "work" / f"faults-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ctx = workload.setup(ROOT, args.seed, workdir)
        workload.warmup(ctx)
        per_call = {"minflt": [], "sys_s": [], "user_s": [], "wall_s": []}
        for _ in range(args.calls):
            r0, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
            workload.call(ctx)
            r1, t1 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
            per_call["minflt"].append(r1.ru_minflt - r0.ru_minflt)
            per_call["sys_s"].append(r1.ru_stime - r0.ru_stime)
            per_call["user_s"].append(r1.ru_utime - r0.ru_utime)
            per_call["wall_s"].append(t1 - t0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "increments": ctx.increments,
                      "per_call": per_call}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
