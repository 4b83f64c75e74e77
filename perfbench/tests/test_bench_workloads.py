"""Seeded inputs, the correctness gate and run.py's output contract."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import worker
import workloads
from tracer import PER_LAYER, PRINTED_ONLY

BENCH = Path(run.BENCH)
ROOT = Path(run.ROOT)


def _cli():
    from uur import cli
    return cli


def _commands(workload, seed, workdir, scale=workloads.FULL, pass_index=0, goldens=None):
    return workloads.make_pass(workload, seed, pass_index, str(workdir), goldens or {}, scale)


def test_the_same_seed_gives_the_same_inputs(tmp_path):
    for workload in workloads.WORKLOADS:
        first = _commands(workload, 3, tmp_path / "a")
        files = {p.name: p.read_bytes() for p in (tmp_path / "a").glob("*.json")}
        again = _commands(workload, 3, tmp_path / "a")
        assert again == first
        assert {p.name: p.read_bytes() for p in (tmp_path / "a").glob("*.json")} == files
        assert _commands(workload, 4, tmp_path / "a") != first


def test_no_pass_repeats_the_inputs_of_another(tmp_path):
    for workload in workloads.WORKLOADS:
        keys = [c["key"] for k in range(12) for c in _commands(workload, 5, tmp_path,
                                                                pass_index=k)]
        assert len(set(keys)) == len(keys)


def test_small_multi_covers_every_state_kind_and_format(tmp_path):
    cmds = _commands("small_multi", 0, tmp_path)
    examples = {c["argv"][2] for c in cmds if c["argv"][0] in ("sweep", "compare")}
    assert examples == {"ex2", "ex3", "ex4", "ex5", "ex6"}
    inputs = [c for c in cmds if c["argv"][0] == "bounds"]
    kinds = {next(iter(json.loads(Path(c["argv"][2]).read_text())["state"])) for c in inputs}
    assert kinds == {"pure", "density", "bloch"}
    assert {c["argv"][-1] for c in inputs} == {"csv", "json"}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_workload_at_toy_size_has_no_failures(workload, tmp_path):
    ledger = worker.Ledger()
    cmds = _commands(workload, 11, tmp_path, workloads.TOY)
    stats = worker.run_pass(_cli(), cmds, ledger)
    assert ledger.failed == 0, ledger.reasons
    assert ledger.attempted == len(cmds)
    assert stats["units"] == sum(c["units"] for c in cmds) > 0


@pytest.mark.parametrize("workload", ["small_multi", "selfcheck"])
@pytest.mark.parametrize("pass_index", [0, workloads.GOLDEN_PASSES - 1])
def test_shipped_seed_matches_the_golden_digests(workload, pass_index, monkeypatch):
    monkeypatch.chdir(ROOT)
    cmds = _commands(workload, 0, f"{run.WORK}/inputs", pass_index=pass_index,
                     goldens=workloads.load_goldens())
    assert all(c["golden"] is not None for c in cmds)
    ledger = worker.Ledger()
    worker.run_pass(_cli(), cmds, ledger)
    assert ledger.failed == 0, ledger.reasons
    assert ledger.gated == len(cmds)


def test_goldens_cover_every_shipped_seed_and_pass(monkeypatch):
    monkeypatch.chdir(ROOT)
    goldens = workloads.load_goldens()
    expected = set()
    for workload in workloads.WORKLOADS:
        for seed in workloads.GOLDEN_SEEDS:
            for k in range(workloads.GOLDEN_PASSES):
                cmds = workloads.build(workload, seed, k, f"{run.WORK}/inputs")
                key = workloads.pass_key(workload, seed, k, [c.key for c in cmds])
                assert len(goldens[key]) == len(cmds)
                expected.add(key)
    assert set(goldens) == expected


def test_a_corrupted_digest_or_output_byte_is_a_failure(tmp_path):
    cmd = _commands("small_multi", 2, tmp_path, workloads.TOY)[0]
    rc, out, _ = worker.run_command(_cli(), cmd["argv"])
    cmd["golden"] = workloads.digest(out)
    assert worker.check(cmd, rc, out) == []

    at = max(i for i, ch in enumerate(out) if ch in "123456789")  # keeps the rows parseable
    flipped = out[:at] + chr(ord(out[at]) ^ 1) + out[at + 1:]
    assert worker.check(cmd, rc, flipped) == ["stdout SHA-256 differs from the golden digest"]

    bad_digest = dict(cmd, golden="0" * 16)
    assert worker.check(bad_digest, rc, out) == ["stdout SHA-256 differs from the golden digest"]

    ledger = worker.Ledger()
    worker.run_pass(_cli(), [bad_digest], ledger)
    assert (ledger.attempted, ledger.failed) == (1, 1)


def test_fallback_checks_without_a_golden_digest():
    rows = {"argv": ["sweep"], "kind": "rows", "units": 2, "golden": None}
    assert worker.check(rows, 0, "theta\n1\n2\n") == []
    assert worker.check(rows, 0, "theta\n1\n") == ["1 units in output, expected 2"]
    assert worker.check(rows, 2, "") == ["exit code 2", "-1 units in output, expected 2"]
    chk = {"argv": ["check"], "kind": "check", "units": 5, "golden": None}
    assert worker.check(chk, 0, "suite x\nresult: PASS\n") == []
    assert worker.check(chk, 1, "result: FAIL (1 of 13 suites)\n") == [
        "exit code 1", "check did not print 'result: PASS'"]


def test_benchmark_json_lists_the_metrics_the_script_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    one_pass = {"wall_s": 1.0, "units": 3, "command_wall_s": [0.5], "command_cpu_s": [0.4],
                "cal_wall_s": [0.005], "cal_cpu_s": [0.005]}
    fake = {"passes": [one_pass, one_pass], "peak_rss_mb": 40.0}
    metrics, _ = run.end_to_end(fake, [(0.2, 0.3, 0.005), (0.3, 0.4, 0.005)])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (k, v["unit"]) for k, v in metrics.items()]


def test_script_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "selfcheck",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_run_reports_every_per_layer_metric():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "small_multi",
                           "--seed", "0", "--seconds", "0.5", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == PER_LAYER
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = "\n".join(proc.stdout.splitlines()[:-1])
    assert all(name in printed for name, _ in PRINTED_ONLY)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_no_per_layer_metric_is_zero(workload, tmp_path):
    next_pass = worker.pass_source(workload, 2, str(tmp_path), workloads.TOY)
    ledger = worker.Ledger()
    result = worker._measure_traced(_cli(), worker.layer_modules(), next_pass, 0.0, ledger,
                                    str(tmp_path / "spans.csv.gz"))
    assert ledger.failed == 0 and result["trace_problems"] == []
    metrics, _ = run.per_layer(result)
    assert [(k, v["unit"]) for k, v in metrics.items()] == PER_LAYER
    assert {k: v["value"] for k, v in metrics.items() if not v["value"] > 0} == {}
