"""Fixed reference task for the benchmark's speed calibration.

Independent of sgdavg. It times REPS repetitions of a short kernel, after
one untimed warm-up, and prints their wall times as a JSON list; run.py
takes the median. The kernel mixes the kinds of work that dominate the
workloads: an interpreter-bound loop and many numpy calls on small arrays,
as in a vectorised SGD step. It holds no large array: a pass over one
varied with the memory the previous command had left behind, which the
workloads' times did not.

Timing inside the process leaves out interpreter start-up and imports,
which vary more from run to run than the work itself. On a shared 2-core
virtual machine the wall time of identical workload runs drifted by up to
26% within an hour; this task drifts with it, so the benchmark scales its
timings by this task's timings from the same run (see run.py).
"""

import json
import time

import numpy as np

REPS = 30


def kernel() -> None:
    total = 0.0
    for i in range(60_000):
        total += i * 0.5
    x = np.zeros((4, 5000))
    g = np.ones((4, 5000))
    for t in range(1, 301):
        x -= g / t
        np.einsum("ij,ij->i", x, g)


def main() -> None:
    kernel()
    times = []
    for _ in range(REPS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    print(json.dumps(times))


if __name__ == "__main__":
    main()
