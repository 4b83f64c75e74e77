"""Self-time arithmetic and the tracer's counts."""

import pytest

import tracer
import worker
from tracer import Span, Tracer, self_times, union_length


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(3.0, 6.0), (1.0, 4.0), (8.0, 9.0)]) == pytest.approx(6.0)
    assert union_length([(0.0, 5.0), (1.0, 2.0)]) == pytest.approx(5.0)


def test_self_times_on_a_synthetic_span_tree():
    # window [0, 20]; top-level spans a [1, 11] and f [12, 18]
    # a has children b [2, 5] (with grandchild c [3, 4]) and d [6, 10]
    spans = [
        Span(0, "cli.main", 1.0, 11.0, -1, 0),
        Span(1, "bounds.bound_report", 2.0, 5.0, 0, 0),
        Span(2, "moments.delta_vector", 3.0, 4.0, 1, 0),
        Span(3, "bounds.best_split_bound", 6.0, 10.0, 0, 0),
        Span(4, "cli.main", 12.0, 18.0, -1, 1),
    ]
    own, bench = self_times(spans, (0.0, 20.0))
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0, 4: 6.0})
    assert bench == pytest.approx(4.0)
    assert sum(own.values()) + bench == pytest.approx(20.0)


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [Span(0, "cli.main", 0.0, 10.0, -1, 0),
             Span(1, "bounds.split_bound", 1.0, 4.0, 0, 0),
             Span(2, "bounds.split_bound", 3.0, 6.0, 0, 0),
             Span(3, "bounds.split_bound", 9.0, 12.0, 0, 0)]  # runs past its parent
    own, bench = self_times(spans, (0.0, 10.0))
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert bench == pytest.approx(0.0)


def test_buckets_follow_the_layer_and_the_named_functions():
    assert tracer.bucket("bounds.best_split_bound_overall") == "bounds.subset_search_s"
    assert tracer.bucket("bounds.split_bound") == "bounds.self_s"
    assert tracer.bucket("scenarios.Scenario.state") == "scenarios.state_s"
    assert tracer.bucket("scenarios.theta_grid") == "scenarios.scenario_s"
    assert tracer.bucket("linalg.hermitian_eig") == "linalg.self_s"


def _traced(argv):
    from uur import cli
    tr = Tracer(worker.layer_modules())
    tr.install()
    try:
        rc, out, _ = worker.run_command(cli, argv)
    finally:
        tr.uninstall()
    assert rc == 0
    return tr, out


def test_ex5_rows_compute_32_delta_vectors_each():
    tr, _ = _traced(["sweep", "--example", "ex5", "--steps", "3"])
    counts = tr.counts()
    assert counts["moments.delta_vector_calls"] == 3 * 32
    assert counts["moments.delta_useful_ratio"] == pytest.approx(3 / 32)
    assert counts["bounds.bound_report_calls"] == 3
    assert counts["cli.commands"] == 1
    assert counts["scenarios.state_calls"] == 3


def test_counts_repeat_exactly_for_the_same_commands():
    argv = ["check", "--seed", "9", "--trials", "2"]
    assert _traced(argv)[0].counts() == _traced(argv)[0].counts()


def test_bound_report_searches_block_size_m_twice():
    # n = 8, m = 4: one search at m, then m = 1..4 again for the overall maximum
    tr, _ = _traced(["bounds", "--example", "ex1", "--dim", "8", "--theta-min", "0.7"])
    counts = tr.counts()
    assert counts["bounds.subset_searches"] == 5
    assert counts["bounds.search_useful_ratio"] == pytest.approx(4 / 5)
    assert counts["bounds.subsets_requested"] == 70 + 8 + 28 + 56 + 70


def test_tracing_changes_no_output_and_uninstalls_cleanly():
    from uur import bounds, cli
    argv = ["compare", "--example", "ex4", "--steps", "4"]
    original = bounds.best_split_bound
    _, plain = worker.run_command(cli, argv)[:2]
    _, traced = _traced(argv)
    assert traced == plain
    assert bounds.best_split_bound is original


def test_layer_times_and_benchmark_time_sum_to_the_traced_wall():
    import time
    from uur import cli
    tr = Tracer(worker.layer_modules())
    tr.install()
    try:
        t0 = time.perf_counter()
        for argv in (["check", "--seed", "5", "--trials", "2"],
                     ["sweep", "--example", "ex6", "--steps", "2"]):
            worker.run_command(cli, argv)
        t1 = time.perf_counter()
    finally:
        tr.uninstall()
    times = tr.times((t0, t1))
    layers = sum(times[k] for k in tracer.TIME_BUCKETS)
    assert layers + times["trace.bench_self_s"] == pytest.approx(t1 - t0, rel=1e-9)
    assert all(times[f"selfcheck.suite_s.{s}"] > 0 for s in tracer.SUITES)
    assert tr.counts()["sampling.draws"] > 0
