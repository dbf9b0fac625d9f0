"""Fixed single-threaded reference computation that calibrates run times.

The machine's speed drifts by tens of percent over seconds (shared cores,
frequency changes), so operation times are reported in units of this
computation, timed next to each operation.  It does what the program's hot
paths do -- small complex eigenproblems, solves, products and matrix
exponentials, called from Python -- and never calls the program, so a
change of the program cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.linalg import expm

# seconds per reference unit that calibrated set-up times are scaled by:
# about the unit's time on the machine of the README, fixed once
REFERENCE_S = 0.003

_rng = np.random.default_rng(20050601)
_A = _rng.standard_normal((6, 6)) + 1j * _rng.standard_normal((6, 6))
_B = _rng.standard_normal((6, 6)) + 1j * _rng.standard_normal((6, 6))
_A3 = _A[:3, :3].copy()


def reference_unit():
    """About 3 ms of small dense linear algebra on one core."""
    acc = 0j
    for i in range(60):
        w = np.linalg.eigvals(_A + (i * 1e-4) * _B)
        c = np.linalg.solve(_A, _B @ _A)
        acc += w.sum() + c[0, 0]
    for i in range(30):
        acc += expm(1j * (1.0 + i * 1e-3) * _A3)[0, 0]
    return acc


def time_reference(repeats=9):
    """(wall seconds, process CPU seconds) of one reference unit: the median
    of `repeats` timings, which follows the machine's speed over about 30 ms
    and drops one-off delays.  (With the least of three timings instead,
    the calibrated costs of a run's rounds spread 1.5 to 2 times as much.)"""
    walls, cpus = [], []
    for _ in range(repeats):
        t0, c0 = time.perf_counter(), time.process_time()
        reference_unit()
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
    return statistics.median(walls), statistics.median(cpus)
