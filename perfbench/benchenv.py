"""Child-process environment of the benchmark and its record.

Imports nothing heavy, so a script can apply the caps to its own process
before numpy loads its BLAS library.
"""

from __future__ import annotations

import os
import platform

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(cores: int) -> dict:
    """The current environment with every BLAS thread pool capped at `cores`
    (a smaller cap already set is kept) and a fixed hash seed."""
    env = dict(os.environ)
    for var in BLAS_VARS:
        current = env.get(var, "")
        keep = current.isdigit() and 0 < int(current) <= cores
        env[var] = current if keep else str(cores)
    env["PYTHONHASHSEED"] = "0"
    return env


def record(cores: int, env: dict) -> dict:
    import numpy

    return {"nproc": cores, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": {v: env[v] for v in BLAS_VARS}}
