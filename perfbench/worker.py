"""Workload process: runs one benchmark spec against `uur.cli.main` in-process.

    python3 perfbench/worker.py SPEC.json RESULT.json

The spec (written by run.py) names the source tree to import `uur` from, the
workload and seed, the measuring time and whether to trace. The worker is a
closed loop: one client issues the next command when the previous one
returns. It runs pass 0 as an untimed warm-up, then passes 1, 2, ... until
the time is up, finishing the pass it is in. Every pass has fresh inputs
(workloads.py), and every command's output is checked. With tracing on,
untraced and traced passes alternate, so the tracer's overhead is measured
on work of the same shape.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import itertools
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import calibrate
import workloads
from order_stats import median


def run_command(cli, argv) -> tuple[int, str, str]:
    """Run one CLI command in-process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects bad argv this way
            rc = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation, not a benchmark error
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def completed_units(cmd: dict, out: str) -> int:
    """Work units the output shows were completed."""
    kind = cmd["kind"]
    if kind == "check":
        lines = out.splitlines()
        return cmd["units"] if lines and lines[-1] == "result: PASS" else 0
    if out.startswith(("[", "{")):
        doc = json.loads(out)
        return len(doc) if kind == "rows" else int(doc.get("command") == "bounds")
    lines = out.splitlines()
    return len(lines) - 1 if kind == "rows" else int(len(lines) == 2)


def check(cmd: dict, rc: int, out: str) -> list[str]:
    """Problems with one command's result; empty when it is correct.

    With a golden digest the stdout must match it byte for byte; without
    one (a seed the table does not cover) the exit code, the row count and
    the PASS line are checked.
    """
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    try:
        units = completed_units(cmd, out)
    except (ValueError, AttributeError) as exc:
        problems.append(f"unparseable output: {exc}")
    else:
        if units != cmd["units"]:
            problems.append("check did not print 'result: PASS'" if cmd["kind"] == "check"
                            else f"{units} units in output, expected {cmd['units']}")
    golden = cmd.get("golden")
    if golden is not None and workloads.digest(out) != golden:
        problems.append("stdout SHA-256 differs from the golden digest")
    return problems


class Ledger:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.gated = 0  # commands with a golden digest
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, cmd: dict, problems: list[str], err: str):
        self.attempted += 1
        self.gated += cmd.get("golden") is not None
        if problems:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{' '.join(cmd['argv'])}: {'; '.join(problems)}"
                                    + (f" | stderr: {err.strip()[-300:]}" if err else ""))


def run_pass(cli, commands: list[dict], ledger: Ledger, tracer=None) -> dict:
    """Run every command once, each right after a calibration kernel.

    Returns the pass window, per-command wall and CPU seconds (the
    program's time only, not the output check), the calibration's wall and
    CPU seconds before each command, and the units completed.
    """
    walls, cpus, cal_walls, cal_cpus, units = [], [], [], [], 0
    t0 = time.perf_counter()
    for index, cmd in enumerate(commands):
        cal_wall, cal_cpu = calibrate.timed()
        if tracer is not None:
            tracer.run = index
        c0, w0 = time.process_time(), time.perf_counter()
        rc, out, err = run_command(cli, cmd["argv"])
        w1, c1 = time.perf_counter(), time.process_time()
        walls.append(w1 - w0)
        cpus.append(c1 - c0)
        cal_walls.append(cal_wall)
        cal_cpus.append(cal_cpu)
        problems = check(cmd, rc, out)
        ledger.record(cmd, problems, err)
        if not problems:
            units += cmd["units"]
    t1 = time.perf_counter()
    return {"start": t0, "end": t1, "wall_s": t1 - t0, "command_wall_s": walls,
            "command_cpu_s": cpus, "cal_wall_s": cal_walls, "cal_cpu_s": cal_cpus,
            "units": units}


def _measure(cli, next_pass, seconds, ledger) -> dict:
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(cli, next_pass(), ledger))
    for p in passes:
        del p["start"], p["end"]
    return {"passes": passes}


def _measure_traced(cli, modules, next_pass, seconds, ledger, spans_path) -> dict:
    from tracer import TIME_BUCKETS, Tracer, report_latency

    pairs = []
    start = time.perf_counter()
    while not pairs or time.perf_counter() - start < seconds:
        plain = run_pass(cli, next_pass(), ledger)
        tr = Tracer(modules)
        tr.install()
        try:
            traced = run_pass(cli, next_pass(), ledger, tracer=tr)
        finally:
            tr.uninstall()
        pairs.append((plain, traced, tr))

    problems = []
    # Times come from the traced pass of median wall, so they sum to its wall;
    # counts from the first traced pass, so they depend on the seed alone.
    ordered = sorted(pairs, key=lambda p: p[1]["wall_s"])
    _, traced, tr = ordered[(len(ordered) - 1) // 2]
    times = tr.times((traced["start"], traced["end"]))
    layer_sum = sum(times[k] for k in TIME_BUCKETS)
    gap = abs(layer_sum + times["trace.bench_self_s"] - times["trace.wall_s"])
    if gap > 1e-9 * max(1.0, times["trace.wall_s"]):
        problems.append(f"self times miss the traced wall by {gap:.3e} s")
    metrics = dict(times)
    metrics.update(pairs[0][2].counts())
    metrics.update(report_latency([ms for _, _, t in pairs for ms in t.report_ms()]))
    metrics["trace.overhead_ratio"] = median(
        [calibrate.nominal(t["command_wall_s"], t["cal_wall_s"])
         / calibrate.nominal(p["command_wall_s"], p["cal_wall_s"]) for p, t, _ in pairs])

    # The spans of the pass the times come from, so they can be recomputed.
    with gzip.open(spans_path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("id,name,start,end,parent,run\n")
        fh.writelines(f"{s.id},{s.name},{s.start!r},{s.end!r},{s.parent},{s.run}\n"
                      for s in tr.spans())
    return {"trace_metrics": metrics, "trace_pairs": len(pairs),
            "bound_report_samples": sum(len(t.report_ms()) for _, _, t in pairs),
            "trace_problems": problems}


def pass_source(workload: str, seed: int, workdir: str, scale: dict = workloads.FULL):
    """A function returning pass 0, 1, 2, ... of the workload on each call."""
    goldens = workloads.load_goldens()
    count = itertools.count()
    return lambda: workloads.make_pass(workload, seed, next(count), workdir, goldens, scale)


def layer_modules() -> dict:
    """The `uur` modules the tracer wraps, by layer name (`errors` does no work)."""
    from uur import bounds, cli, linalg, moments, sampling, scenarios, selfcheck

    return {"cli": cli, "scenarios": scenarios, "moments": moments, "linalg": linalg,
            "bounds": bounds, "sampling": sampling, "selfcheck": selfcheck}


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import uur  # the package under test, from spec["src"]

    if src not in Path(uur.__file__).resolve().parents:
        print(f"error: imported uur from {uur.__file__}, not from {src}", file=sys.stderr)
        return 2
    modules = layer_modules()
    cli = modules["cli"]
    next_pass = pass_source(spec["workload"], spec["seed"], spec["workdir"])
    ledger = Ledger()
    warmup = run_pass(cli, next_pass(), ledger)
    if spec["trace"]:
        result = _measure_traced(cli, modules, next_pass, spec["seconds"], ledger,
                                 spec["spans_path"])
    else:
        result = _measure(cli, next_pass, spec["seconds"], ledger)
    result.update({
        "warmup_wall_s": warmup["wall_s"],
        "attempted": ledger.attempted,
        "gated": ledger.gated,
        "failed": ledger.failed,
        "failure_reasons": ledger.reasons,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
