#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, recorded as BENCH_<n>.json.

    python3 tools/bench_pairs.py REV [--claim WORKLOAD] [--change TEXT] [--number N]

Run from the root of the repository. REV is the parent commit; the change is
the working tree: every file git does not ignore, tracked or not, written to
a tree object through a temporary index (the repository's own index is left
alone). Each side runs from a fresh `git archive` copy in a temporary
directory, with PYTHONDONTWRITEBYTECODE=1, so every process compiles `uur`
from source. For each workload of BENCHMARK.json, in its order, pairs run
`perfbench/run.py --trace 0` for BENCHMARK.json's run_seconds on the parent
and the change with one seed: 10 pairs on the claimed workload and 5 on each
other one (5 on every workload when no gain is claimed); an even pair runs
the parent first, an odd pair the change first.
The record is BENCH_<n>.json, n given by --number or one past the highest
record in the repository, and workload k (0-based) takes the seeds n*1000 + 101 + 20*k
onwards, so no seed of an earlier record is reused.

Per workload and end-to-end metric the record holds each side's median and
quartiles (numpy's linear interpolation over that side's runs), the pairs the
change wins, the median change relative to the parent's, the parent's IQR, and
whether the change's median stays within the metric's bound. The claim, on
work_per_s, holds when the change wins at least nine tenths of the claimed
workload's pairs and its median beats the parent's by more than the parent's
IQR. Without --claim the record's claim is null, and its last line gives each
workload's work_per_s change and whether every metric stays within its bound.
Runs go one at a time; at 20 s a run, a record takes about 20 minutes (15
without a claim).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CLAIM_WINS = 0.9  # share of the claimed workload's pairs the change must win
CLAIM_PAIRS, OTHER_PAIRS = 10, 5
METRIC = "work_per_s"  # the claimed metric


def quartiles(values) -> dict:
    """Median and quartiles of one side's runs, numpy's linear interpolation."""
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def summarize(pairs: list[dict], metric: str, better: str, bound: float) -> dict:
    """One metric's comparison over a workload's pairs, each {"parent": run, "change": run}."""
    sign = 1.0 if better == "higher" else -1.0
    parent = [p["parent"][metric] for p in pairs]
    change = [p["change"][metric] for p in pairs]
    old, new = quartiles(parent), quartiles(change)
    relative = new["median"] / old["median"] - 1.0
    return {"better": better, "bound": bound, "parent": old, "change": new,
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "pairs": len(pairs), "median_change_vs_parent": relative,
            "parent_iqr": old["q3"] - old["q1"], "within_bound": -sign * relative <= bound}


def claim_holds(summary: dict) -> bool:
    """The change wins nine tenths of the pairs, and its median beats the parent's by more than the parent's IQR."""
    sign = 1.0 if summary["better"] == "higher" else -1.0
    gain = sign * (summary["change"]["median"] - summary["parent"]["median"])
    return summary["change_wins"] >= CLAIM_WINS * summary["pairs"] and gain > summary["parent_iqr"]


def workload_record(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """A workload's pairs and their summary: every metric's comparison, and whether every run was correct."""
    summary = {m["name"]: summarize(pairs, m["name"], m["better"], m["bound"]) for m in end_to_end}
    summary["correct"] = all(p[side]["correct"] and p[side]["failed"] == 0
                             for p in pairs for side in ("parent", "change"))
    return {"pairs": pairs, "summary": summary}


def bounds_line(record: dict) -> str:
    """A record's work_per_s change per workload, and the end-to-end metrics outside their bounds, if any."""
    workloads = record["workloads"].items()
    changes = ", ".join(f"{name} {METRIC} {w['summary'][METRIC]['median_change_vs_parent']:+.2%}"
                        for name, w in workloads)
    outside = [f"{name} {metric}" for name, w in workloads for metric, summary in w["summary"].items()
               if metric != "correct" and not summary["within_bound"]]
    return f"{changes}; " + (f"outside its bound: {', '.join(outside)}" if outside else "every metric within its bound")


def seeds(number: int, k: int, count: int) -> range:
    start = number * 1000 + 101 + 20 * k
    return range(start, start + count)


def _git(*args: str, env: dict | None = None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, env=env, check=True, capture_output=True,
                          text=True).stdout.strip()


def working_tree() -> str:
    """A tree object of the working tree, written through a temporary copy of the index."""
    with tempfile.TemporaryDirectory() as tmp:
        index = Path(tmp) / "index"
        index.write_bytes((ROOT / _git("rev-parse", "--git-path", "index")).read_bytes())
        env = dict(os.environ, GIT_INDEX_FILE=str(index))
        _git("add", "-A", env=env)
        return _git("write-tree", env=env)


def extract(treeish: str, dest: Path) -> None:
    dest.mkdir()
    archive = subprocess.run(["git", "archive", treeish], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One benchmark run: (correct, attempted, failed and each end-to-end metric's value; its environment)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                          "--seconds", f"{seconds:g}", "--trace", "0"], cwd=tree, env=env, check=True,
                         capture_output=True, text=True).stdout
    result = json.loads(out.splitlines()[-1])
    found = re.search(r"^# environment: (.*)$", out, re.M)
    run = {key: result[key] for key in ("correct", "attempted", "failed")}
    run.update((name, metric["value"]) for name, metric in result["metrics"].items())
    return run, json.loads(found[1]) if found else {}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    numbers = [int(m[1]) for p in ROOT.glob("BENCH_*.json") if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="parent commit")
    parser.add_argument("--claim", choices=names, help="workload whose gain is claimed (default: none)")
    parser.add_argument("--change", default="", help="what the change does, for the record")
    parser.add_argument("--number", type=int, default=max(numbers, default=0) + 1,
                        help="n of BENCH_<n>.json (default: one past the highest record)")
    args = parser.parse_args(argv)
    number, seconds = args.number, bench["run_seconds"]
    if number in numbers:
        parser.error(f"BENCH_{number}.json exists")

    parent = _git("rev-parse", args.rev)
    counts = (f"{CLAIM_PAIRS} pairs on the claimed workload, {OTHER_PAIRS} on each other" if args.claim
              else f"{OTHER_PAIRS} pairs on every workload, no claim")
    change = working_tree()
    record = {
        "benchmark": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "parent": parent, "change": args.change,
        "change_tree": f"tree {change} of the working tree (git add -A into a temporary index), archived with "
                       "git archive",
        "host": {"libc": " ".join(platform.libc_ver()), "machine": platform.machine()},
        "method": f"pairs run parent/change on the same seed; an even pair index runs the parent first, an odd "
                  f"one the change first; {counts}; workload k takes seeds {number}*1000 + 101 + 20k onwards; "
                  "one run at a time, PYTHONDONTWRITEBYTECODE=1, each side from a fresh git archive copy; "
                  "quartiles are numpy linear-interpolation percentiles over the runs of one side",
        "claim": {"workload": args.claim, "metric": METRIC} if args.claim else None,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        extract(parent, trees["parent"])
        extract(change, trees["change"])
        for k, name in enumerate(names):
            pairs = []
            for i, seed in enumerate(seeds(number, k, CLAIM_PAIRS if name == args.claim else OTHER_PAIRS)):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side], environment = run_once(trees[side], name, seed, seconds)
                    record["host"].setdefault("environment", environment)
                pairs.append(pair)
                print(f"{name} seed {seed}: parent {pair['parent'][METRIC]:.6g}, "
                      f"change {pair['change'][METRIC]:.6g}", file=sys.stderr)
            record["workloads"][name] = workload_record(pairs, bench["end_to_end"])
    if args.claim:
        claimed = record["workloads"][args.claim]["summary"][METRIC]
        record["claim"]["holds"] = claim_holds(claimed)
    out = ROOT / f"BENCH_{number}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if not args.claim:
        print(f"{out.name}: no claim; {bounds_line(record)}")
        return 0
    print(f"{out.name}: {args.claim} {METRIC} {claimed['parent']['median']:.6g} -> "
          f"{claimed['change']['median']:.6g} ({claimed['median_change_vs_parent']:+.2%}, the change better on "
          f"{claimed['change_wins']} of {claimed['pairs']} pairs, parent IQR {claimed['parent_iqr']:.6g}); "
          f"claim {'holds' if record['claim']['holds'] else 'does not hold'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
