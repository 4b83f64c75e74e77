"""The verdict arithmetic of tools/bench_pairs.py, on canned runs: nothing is timed here."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "work_per_s", "better": "higher", "bound": 0.15},
              {"name": "cpu_s", "better": "lower", "bound": 0.15}]


def run(rate: float, cpu: float, correct: bool = True, failed: int = 0) -> dict:
    return {"correct": correct, "attempted": 100, "failed": failed, "work_per_s": rate, "cpu_s": cpu}


def pairs_of(parent_rates, change_rates, cpu=0.1) -> list[dict]:
    return [{"seed": 1 + i, "first": ("parent", "change")[i % 2], "parent": run(p, cpu), "change": run(c, cpu)}
            for i, (p, c) in enumerate(zip(parent_rates, change_rates))]


PARENT = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]


def test_quartiles_are_numpy_linear_percentiles():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == {"median": 2.5, "q1": 1.75, "q3": 3.25}
    assert bench_pairs.quartiles([5.0]) == {"median": 5.0, "q1": 5.0, "q3": 5.0}


def test_summary_of_a_higher_is_better_metric():
    summary = bench_pairs.summarize(pairs_of(PARENT, [p + 10.0 for p in PARENT]), "work_per_s", "higher", 0.15)
    assert summary["parent"] == {"median": 104.5, "q1": 102.25, "q3": 106.75}
    assert summary["change"]["median"] == 114.5
    assert (summary["change_wins"], summary["pairs"]) == (10, 10)
    assert summary["parent_iqr"] == 4.5
    assert summary["median_change_vs_parent"] == pytest.approx(10.0 / 104.5)
    assert summary["within_bound"] and bench_pairs.claim_holds(summary)


@pytest.mark.parametrize("change, holds", [
    ([p + 10.0 for p in PARENT[:9]] + [PARENT[9] - 1.0], True),    # 9 of 10 wins, gain 10 > IQR 4.5
    ([p + 10.0 for p in PARENT[:8]] + [p - 1.0 for p in PARENT[8:]], False),  # 8 of 10 wins
    ([p + 4.0 for p in PARENT], False),    # 10 of 10 wins, but a median gain of 4 inside the IQR of 4.5
    ([p + 4.75 for p in PARENT], True),    # 4.75 > 4.5
    ([p + 0.0 for p in PARENT], False),    # a tie wins no pair
])
def test_claim_needs_nine_tenths_of_the_pairs_and_a_gain_past_the_parent_iqr(change, holds):
    summary = bench_pairs.summarize(pairs_of(PARENT, change), "work_per_s", "higher", 0.15)
    assert bench_pairs.claim_holds(summary) is holds


def test_a_lower_is_better_metric_wins_by_falling():
    cpu = [0.20, 0.21, 0.19, 0.20, 0.22]
    pairs = [{"parent": run(100.0, p), "change": run(100.0, p * 0.8)} for p in cpu]
    summary = bench_pairs.summarize(pairs, "cpu_s", "lower", 0.15)
    assert summary["change_wins"] == 5
    assert summary["median_change_vs_parent"] == pytest.approx(-0.2)
    assert summary["within_bound"] and bench_pairs.claim_holds(summary)
    worse = bench_pairs.summarize([{"parent": p["change"], "change": p["parent"]} for p in pairs],
                                  "cpu_s", "lower", 0.15)
    assert worse["change_wins"] == 0 and worse["median_change_vs_parent"] == pytest.approx(0.25)
    assert not worse["within_bound"] and not bench_pairs.claim_holds(worse)


@pytest.mark.parametrize("drop, within", [(0.149, True), (0.151, False)])
def test_the_bound_is_judged_on_the_median_change(drop, within):
    summary = bench_pairs.summarize(pairs_of([100.0] * 5, [100.0 * (1 - drop)] * 5), "work_per_s", "higher", 0.15)
    assert summary["within_bound"] is within


def test_a_workload_is_correct_only_if_every_run_of_both_sides_is():
    good = pairs_of(PARENT[:5], PARENT[:5])
    assert bench_pairs.workload_record(good, END_TO_END)["summary"]["correct"]
    for side, bad in (("parent", run(1.0, 0.1, correct=False)), ("change", run(1.0, 0.1, failed=1))):
        pairs = pairs_of(PARENT[:5], PARENT[:5])
        pairs[3][side] = bad
        record = bench_pairs.workload_record(pairs, END_TO_END)
        assert not record["summary"]["correct"] and record["pairs"] is pairs
        assert set(record["summary"]) == {"work_per_s", "cpu_s", "correct"}


def test_each_workload_takes_its_own_unused_seeds():
    ranges = [bench_pairs.seeds(35, k, 10) for k in range(3)]
    assert [(r[0], r[-1]) for r in ranges] == [(35101, 35110), (35121, 35130), (35141, 35150)]
    assert bench_pairs.seeds(35, 1, 5) == range(35121, 35126)


def test_a_run_without_a_claim_records_every_workload_and_claims_nothing(tmp_path, monkeypatch, capsys):
    # Canned runs stand in for the benchmark: every workload takes OTHER_PAIRS pairs, the record's claim is
    # null, and the last line gives each workload's work_per_s change and the metrics outside their bounds.
    bench = {"run_seconds": 20, "workloads": [{"name": "fast"}, {"name": "slow"}], "end_to_end": END_TO_END}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(bench), encoding="utf-8")
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "_git", lambda *args, env=None: "0" * 40)
    monkeypatch.setattr(bench_pairs, "working_tree", lambda: "1" * 40)
    monkeypatch.setattr(bench_pairs, "extract", lambda treeish, dest: dest.mkdir())
    canned = {("fast", "parent"): run(100.0, 0.1), ("fast", "change"): run(102.0, 0.1),
              ("slow", "parent"): run(100.0, 0.1), ("slow", "change"): run(99.0, 0.2)}
    monkeypatch.setattr(bench_pairs, "run_once",
                        lambda tree, workload, seed, seconds: (canned[workload, tree.name], {}))
    assert bench_pairs.main(["HEAD"]) == 0
    record = json.loads((tmp_path / "BENCH_1.json").read_text(encoding="utf-8"))
    assert record["claim"] is None
    assert [len(w["pairs"]) for w in record["workloads"].values()] == [bench_pairs.OTHER_PAIRS] * 2
    assert [p["seed"] for p in record["workloads"]["slow"]["pairs"]] == list(bench_pairs.seeds(1, 1, 5))
    assert capsys.readouterr().out.splitlines()[-1] == (
        "BENCH_1.json: no claim; fast work_per_s +2.00%, slow work_per_s -1.00%; outside its bound: slow cpu_s")
    (tmp_path / "BENCH_1.json").unlink()
    canned["slow", "change"] = run(99.0, 0.1)
    assert bench_pairs.main(["HEAD"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "BENCH_1.json: no claim; fast work_per_s +2.00%, slow work_per_s -1.00%; every metric within its bound")
