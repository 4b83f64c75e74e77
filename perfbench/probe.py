"""Set-up probe: CPU cost from `import uur` to a parsed first command, in a fresh process.

    python3 perfbench/probe.py SRC_DIR ARGV_JSON

Prints three numbers: the set-up CPU seconds (user + sys of every thread of
the process), the set-up wall seconds, and the median CPU seconds of three
runs of the calibration kernel right after it (see calibrate.py). Set-up
covers the numpy import that `import uur` pulls in, building the argument
parser and parsing the argv. run.py starts the probe with every BLAS pool
capped at one thread: with more, the pool's threads spin while numpy
loads, and on a busy 2-core machine they preempt the importing thread.
"""

import json
import sys
import time
from pathlib import Path

src = Path(sys.argv[1]).resolve()
argv = json.loads(sys.argv[2])
sys.path.insert(0, str(src))
c0, t0 = time.process_time(), time.perf_counter()
import uur  # noqa: E402
from uur import cli  # noqa: E402

args = cli.build_parser().parse_args(argv)
cli.RunConfig(**vars(args))
wall, cpu = time.perf_counter() - t0, time.process_time() - c0
if src not in Path(uur.__file__).resolve().parents:
    sys.exit(f"error: imported uur from {uur.__file__}, not from {src}")
# Imported only now: calibrate loads numpy, which must not be loaded before
# the timed import.
import statistics  # noqa: E402

import calibrate  # noqa: E402

calibrate.kernel()  # first-call costs of the numpy routines it uses
cal = statistics.median(calibrate.timed()[1] for _ in range(3))
print(repr(cpu), repr(wall), repr(cal))
