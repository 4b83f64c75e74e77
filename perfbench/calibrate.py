"""Calibration kernel: a fixed piece of work that measures how fast the machine
runs right now.

The benchmark shares its cores with other tenants, which slow whole stretches
of a run by up to 2x. Measured on the 2-core machine the benchmark was
written on, medians of raw command times over 10-30 s windows differed by
25-35% between windows and even per-command minimums by 10-20%; the median
of (command time / calibration time just before it) differed by 2-4%. So
every timed command is preceded by this kernel, and times are reported in
nominal seconds: measured time x NOMINAL_S / calibration time.

The kernel mixes the kinds of work `uur` does: interpreted Python
arithmetic, many small numpy calls and small LAPACK factorisations; with
all three the ratio tracked every workload better than with any one. It must
never change once a baseline has been measured with it; a change to it is a
change to the benchmark.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Time of kernel() on an unloaded core of the reference machine (Intel Xeon,
# 2.1 GHz, Python 3.11, numpy 2.4). Only a scale: ratios between runs are
# unaffected by its value.
NOMINAL_S = 0.006


_GRID = np.arange(36.0).reshape(6, 6)
_M = (_GRID % 7 + 1j * (_GRID % 5)) / 10 + np.eye(6)


def kernel() -> float:
    s = 0.0
    for i in range(25000):
        s += math.sqrt(i) * 0.5 if i & 1 else i * 0.25
    a = np.arange(16.0) + 1j
    for _ in range(300):
        a = np.abs(a - np.vdot(a, a) * 1e-3) + 0j
    for _ in range(30):
        q, _ = np.linalg.qr(_M)
        w = np.linalg.eigvalsh(q.conj().T @ q + np.eye(6))
    return s + float(a.real[0]) + float(w[0])


def timed() -> tuple[float, float]:
    """(wall, CPU) seconds of one kernel() run."""
    c0, t0 = time.process_time(), time.perf_counter()
    kernel()
    t1, c1 = time.perf_counter(), time.process_time()
    return t1 - t0, c1 - c0


def nominal(times: list[float], cals: list[float]) -> float:
    """Nominal seconds of a run of commands: the sum over them of (time / the
    calibration time just before it), scaled by NOMINAL_S."""
    return NOMINAL_S * sum(t / c for t, c in zip(times, cals))
