"""Benchmark of the `uur` CLI: one seeded workload, timed end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; `uur` is imported from ./src. The
script times set-up in fresh processes, then starts one fresh workload
process (perfbench/worker.py) that generates the workload's inputs from the
seed, drives `uur.cli.main` in a closed loop for S seconds and checks every
output.
With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of a traced run.
The lines before it are the same figures for people, with sample counts and
the environment. See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import benchenv
import calibrate
import workloads
from order_stats import median, quartiles, tail

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = "perfbench/.work"  # relative to ROOT; listed in .gitignore
SETUP_PROBES = 10  # before and again after the workload process
DEADLINE_S = 170.0  # the whole run must end within 180 s


def setup_times(argv: list[str], deadline: float, probes: int,
                warm: bool = False) -> list[tuple[float, float, float]]:
    """(set-up CPU, set-up wall, calibration CPU) seconds of `probes` fresh
    processes with one BLAS thread; with `warm`, after one untimed probe that
    fills the file cache and the bytecode cache."""
    cmd = [sys.executable, str(BENCH / "probe.py"), "src", json.dumps(argv)]
    env = benchenv.child_env(1)
    samples = []
    for k in range(probes + warm):
        out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True,
                             timeout=max(1.0, deadline - time.monotonic()))
        if k or not warm:
            cpu, wall, cal = (float(t) for t in out.stdout.split()[-3:])
            samples.append((cpu, wall, cal))
    return samples


def spread(values) -> str:
    q1, q3 = quartiles(values)
    return f"median {median(values):.6g}, q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}"


def end_to_end(result: dict, setup: list[tuple[float, float, float]]) -> tuple[dict, list[str]]:
    """The end-to-end metrics over all measured passes: every unit of work
    over every nominal second, so a cost that only some passes pay counts."""
    passes = result["passes"]
    walls = [calibrate.nominal(p["command_wall_s"], p["cal_wall_s"]) for p in passes]
    cpus = [calibrate.nominal(p["command_cpu_s"], p["cal_cpu_s"]) for p in passes]
    rate = sum(p["units"] for p in passes) / sum(walls)
    cpu = sum(cpus) / len(passes)
    setup_nominal = [calibrate.NOMINAL_S * s / cal for s, _, cal in setup]
    metrics = {
        "work_per_s": {"value": rate, "unit": "1/s"},
        "cpu_s": {"value": cpu, "unit": "s"},
        "setup_s": {"value": median(setup_nominal), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }
    raw_rates = [p["units"] / sum(p["command_wall_s"]) for p in passes]
    cals = [c for p in passes for c in p["cal_wall_s"]]
    pass_walls = [p["wall_s"] for p in passes]
    pct, wall_tail = tail(pass_walls)
    lines = [
        f"work_per_s   {rate:.6g} 1/s  units per nominal second over {len(passes)} passes; "
        f"per pass ({spread([p['units'] / w for p, w in zip(passes, walls)])})",
        f"cpu_s        {cpu:.6g} s  nominal CPU seconds per pass, mean; per pass "
        f"({spread(cpus)})",
        f"setup_s      {median(setup_nominal):.6g} s  nominal CPU, fresh processes "
        f"({spread(setup_nominal)})",
        f"peak_rss_mb  {result['peak_rss_mb']:.6g} MB  workload process",
        f"raw          rate per pass ({spread(raw_rates)}); set-up CPU s "
        f"({spread([s for s, _, _ in setup])}); set-up wall s "
        f"({spread([wall for _, wall, _ in setup])})",
        f"raw          pass wall median {median(pass_walls):.6g} s, p{pct:.0f} {wall_tail:.6g} s, "
        f"n={len(pass_walls)}; calibration ({spread(cals)}), nominal {calibrate.NOMINAL_S} s",
    ]
    return metrics, lines


def per_layer(result: dict) -> tuple[dict, list[str]]:
    from tracer import PER_LAYER, PRINTED_ONLY

    values = result["trace_metrics"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    wall = values["trace.wall_s"]
    lines = [f"traced passes {result['trace_pairs']} (times from the median one, "
             f"counts from the first); bound_report samples {result['bound_report_samples']}"]
    for name, unit in PER_LAYER + PRINTED_ONLY:
        if not values.get(name):
            lines.append(f"{name:40s} not exercised by this workload")
            continue
        share = (f"  ({values[name] / wall:.1%} of traced wall)"
                 if unit == "s" and name != "trace.wall_s" else "")
        lines.append(f"{name:40s} {values[name]:.6g} {unit}{share}")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "uur" / "__init__.py").is_file():
        print(f"error: no uur source tree at {ROOT / 'src' / 'uur'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    Path(WORK).mkdir(parents=True, exist_ok=True)
    workdir = f"{WORK}/inputs"
    first = list(workloads.build(args.workload, args.seed, 0, workdir)[0].argv)

    nproc = benchenv.nproc()
    env = benchenv.child_env(nproc)
    setup = setup_times(first, deadline, SETUP_PROBES, warm=True)

    stem = f"{WORK}/{args.workload}-{args.seed}-trace{args.trace}"
    spec = {"src": "src", "workload": args.workload, "seed": args.seed, "workdir": workdir,
            "seconds": args.seconds, "trace": bool(args.trace),
            "spans_path": f"{stem}-spans.csv.gz"}
    Path(f"{stem}-spec.json").write_text(json.dumps(spec), encoding="utf-8")
    try:
        subprocess.run([sys.executable, str(BENCH / "worker.py"), f"{stem}-spec.json",
                        f"{stem}-result.json"], env=env, check=True,
                       timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print("error: the workload process did not finish in time", file=sys.stderr)
        return 1
    except subprocess.CalledProcessError as exc:
        print(f"error: the workload process exited with {exc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(Path(f"{stem}-result.json").read_text(encoding="utf-8"))
    # Probes on both sides of the workload sample set-up at two moments.
    setup += setup_times(first, deadline, SETUP_PROBES)

    if args.trace:
        metrics, lines = per_layer(result)
    else:
        metrics, lines = end_to_end(result, setup)
    problems = result["failure_reasons"] + result.get("trace_problems", [])
    print(f"# uur benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# environment: {json.dumps(benchenv.record(nproc, env))}")
    print(f"# {result['attempted']} commands, {result['gated']} of them checked against "
          f"a golden digest; warm-up pass {result['warmup_wall_s']:.3f} s")
    for line in lines:
        print(f"# {line}")
    print(f"# error_rate   {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} operations failed)")
    for reason in problems:
        print(f"# FAILED: {reason}", file=sys.stderr)
    print(json.dumps({"correct": not problems and result["failed"] == 0,
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
