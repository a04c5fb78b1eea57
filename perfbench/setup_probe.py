"""Time one set-up in this fresh process: import goluzin_lab from the
checkout's ``src/`` and build a workload's inputs.  Prints the seconds.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <small 0|1> <workdir>
"""

import sys
import time

t0 = time.perf_counter()

from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import goluzin_lab  # noqa: E402,F401
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4])
print(time.perf_counter() - t0)
