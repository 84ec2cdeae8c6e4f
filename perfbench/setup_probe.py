"""Time one workload's set-up in a fresh interpreter and print it in seconds.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>

The clock starts before numpy and stochmap are imported, so the figure holds
everything a run pays before its timed call.
"""
import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].setup(HERE.parent, int(sys.argv[2]), Path(sys.argv[3]))
print(repr(time.perf_counter() - START))
