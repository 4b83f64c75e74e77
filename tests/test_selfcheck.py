from __future__ import annotations

import hashlib
import json

import numpy as np

from uur import bounds, linalg, sampling, selfcheck


def _corrupt_split_bound(monkeypatch):
    # Adding 2e-6 to every split bound breaks the pair chain's k_m links.
    real = bounds.split_bound
    monkeypatch.setattr(bounds, "split_bound",
                        lambda pair, subset: real(pair, subset) + 2e-6)


def test_suite_result_records_the_first_counterexample():
    # A suite whose body checks nothing reports worst 0.0, not -inf.
    assert selfcheck._suite(lambda rec, seed, trial: None)(42, 3) == selfcheck.SuiteResult(
        "<lambda>", 3, failures=0, worst=0.0)
    rec = selfcheck.SuiteResult("demo", 2)
    rec.check(-1.0, 0.0, {"trial": 0}, "fine")
    rec.check(2.0, 0.0, {"trial": 1, "state": np.array([1j])}, "first")
    rec.check(3.0, 0.0, {"trial": 2}, "second")
    assert (rec.failures, rec.worst) == (2, 3.0)
    assert rec.counterexample == {"trial": 1, "state": [[0.0, 1.0]], "suite": "demo",
                                  "violation": "first", "amount": 2.0}


def test_run_all_passes_with_small_trial_count():
    results = selfcheck.run_all(seed=42, trials=10)
    assert len(results) == 13
    names = [r.name for r in results]
    assert len(set(names)) == len(names)
    for r in results:
        assert r.failures == 0, f"{r.name}: {r.counterexample}"
        assert r.trials > 0


def test_run_all_is_deterministic():
    a = selfcheck.run_all(seed=7, trials=8)
    b = selfcheck.run_all(seed=7, trials=8)
    assert [(r.name, r.trials, r.failures, r.worst) for r in a] == \
           [(r.name, r.trials, r.failures, r.worst) for r in b]


def test_corruption_is_caught_with_counterexample(monkeypatch):
    _corrupt_split_bound(monkeypatch)
    results = selfcheck.run_all(seed=3, trials=10)
    bad = [r for r in results if r.failures]
    assert bad, "the corrupted split bound must trip the chain suite"
    assert bad[0].name == "pair_chain"
    ce = bad[0].counterexample
    # The counterexample must be enough to replay the instance.
    assert {"suite", "trial", "violation", "state", "operators"} <= set(ce)
    json.dumps(ce)  # serializable as emitted by the CLI


def test_counterexample_encoding_is_unchanged(monkeypatch):
    # Digest recorded when every trial still encoded its instance up front;
    # encoding only the captured counterexample must give the same JSON.
    _corrupt_split_bound(monkeypatch)
    ce = selfcheck.run_all(seed=3, trials=10)[0].counterexample
    digest = hashlib.sha256(json.dumps(ce, sort_keys=True).encode()).hexdigest()
    assert digest == "5b2e4dff246ad39be3affb55d81af42238994f2f3a315a6249c82ca0faca6aa4"


def test_subset_chain_reads_large_block_sizes_from_the_table(monkeypatch):
    # d = 2..8 over 7 trials: best_split_bounds searches floor(d/2) sizes
    # each, 16 in all; sizes above d/2 tie with d - m and are not searched.
    calls = []
    real = bounds.best_split_bound
    monkeypatch.setattr(bounds, "best_split_bound",
                        lambda pair, m, cap=bounds.DEFAULT_CAP: calls.append(m) or real(pair, m, cap))
    result = selfcheck.suite_subset_chain(42, 7)
    assert result.failures == 0 and result.trials == 7
    assert len(calls) == 16


def test_split_symmetry_searches_each_block_size_once(monkeypatch):
    # 15 trials with d = 4..6 hold 45 block sizes m = 1..d-1; the suite
    # compares m with d - m from one search per size (it made 90 searches).
    calls = []
    real = bounds.best_split_bound
    monkeypatch.setattr(bounds, "best_split_bound",
                        lambda pair, m, cap=bounds.DEFAULT_CAP: calls.append(m) or real(pair, m, cap))
    result = selfcheck.suite_split_symmetry(42, 15)
    assert result.failures == 0 and result.trials == 15
    assert len(calls) == 45


def test_each_sampled_unitary_is_checked_at_most_once(monkeypatch):
    # Each draw is wrapped in moments.Unitary where it enters a checking
    # call, so no draw is checked twice (unwrapped, this run made 984).
    checks, draws = [], []
    real_deviation, real_draw = linalg.unitary_deviation, sampling.random_unitary
    monkeypatch.setattr(linalg, "unitary_deviation",
                        lambda M: checks.append(1) or real_deviation(M))
    monkeypatch.setattr(sampling, "random_unitary",
                        lambda rng, n: draws.append(1) or real_draw(rng, n))
    selfcheck.run_all(seed=42, trials=25)
    assert len(draws) == 711
    assert len(checks) <= 711
