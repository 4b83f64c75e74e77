"""One-off reference pass: the hand-timed cases of ROADMAP.md, timed once.

    python3 perfbench/reference.py [--with-n22]

Run from the root of a checkout. Not part of the gated benchmark: each case
runs once (bound_report at n = 16 three times, median), in this process,
with the benchmark's BLAS caps. Times are raw wall seconds, printed beside
the hand-timed values and the calibration kernel's current time.
`bound_report` uses ex1 at dimension n and theta = 1.0 with the default
block size n // 2. n = 22 takes about 7 s and only runs with --with-n22.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import benchenv

os.environ.update(benchenv.child_env(benchenv.nproc()))  # before numpy loads BLAS

import calibrate  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from order_stats import median  # noqa: E402

HAND = {"bound_report n=16": 0.14, "bound_report n=20": 1.7, "bound_report n=22": 7.3,
        "sweep ex1 --dim 16": 23.0, "sweep ex5": 0.37, "check --trials 1000": 6.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--with-n22", action="store_true")
    args = parser.parse_args(argv)
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.ROOT / "src"))
    from uur import bounds, cli, scenarios

    def report(n: int) -> float:
        scen = scenarios.scenario("ex1", n)
        (_, A), (_, B) = scen.operators
        psi = scen.state(1.0)
        t0 = time.perf_counter()
        bounds.bound_report(A, B, psi)
        return time.perf_counter() - t0

    def command(*argv: str) -> float:
        t0 = time.perf_counter()
        rc, _, err = worker.run_command(cli, argv)
        if rc != 0:
            raise SystemExit(f"error: {' '.join(argv)} exited {rc}: {err}")
        return time.perf_counter() - t0

    cases = [("bound_report n=16", lambda: median([report(16) for _ in range(3)])),
             ("bound_report n=20", lambda: report(20))]
    if args.with_n22:
        cases.append(("bound_report n=22", lambda: report(22)))
    cases += [("sweep ex1 --dim 16", lambda: command("sweep", "--example", "ex1", "--dim", "16")),
              ("sweep ex5", lambda: command("sweep", "--example", "ex5")),
              ("check --trials 1000", lambda: command("check", "--trials", "1000"))]
    print(f"environment: {benchenv.record(benchenv.nproc(), dict(os.environ))}")
    calibrate.kernel()
    cal = median([calibrate.timed()[0] for _ in range(9)])
    print(f"calibration kernel: {1e3 * cal:.2f} ms (nominal {1e3 * calibrate.NOMINAL_S:.0f} ms); "
          "times below are raw wall seconds")
    print(f"| {'case':22s} | hand (s) | harness (s) |")
    print(f"|{'-' * 24}|----------|-------------|")
    for name, fn in cases:
        print(f"| {name:22s} | {HAND[name]:8.2f} | {fn():11.3f} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
