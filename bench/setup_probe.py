"""Print the seconds a fresh interpreter takes to import charge_lab (with
its CLI module) and build one workload's inputs, rescaled to the reference
host speed of bench/speed.py by calibration samples taken right after. The
benchmark's own imports are not counted.

Usage: python3 bench/setup_probe.py WORKLOAD SEED
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
t0 = time.perf_counter()
import charge_lab.cli  # noqa: E402,F401

imported = time.perf_counter() - t0
import workloads  # noqa: E402

t1 = time.perf_counter()
workloads.build(sys.argv[1], int(sys.argv[2]))
seconds = imported + time.perf_counter() - t1

import speed  # noqa: E402

print(seconds, speed.rescale(seconds, [speed.sample() for _ in range(5)]))
