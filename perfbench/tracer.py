"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions and methods of each `uur` module from
outside the package: nothing under src/ knows it exists. Every wrapped call
records a span (id, name, start, end, parent span, run id) in memory; run id
is the index of the CLI command the span belongs to. Counts are derived from
call arguments, so they repeat exactly from run to run.

Private helpers are never wrapped: `bounds._split_value` alone is called
millions of times per run, and a span per call would measure the tracer.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from array import array
from collections import Counter, defaultdict
from typing import NamedTuple

import numpy as np

from order_stats import median, tail

SUITES = ("pair_chain", "subset_chain", "fine_grained_chain", "cross_bound_chain",
          "subset_oracle", "split_symmetry", "gram_psd", "triple_bound", "multi_op",
          "purification", "mixed_state_floor", "equality_case", "coordinate_identities")

# Self time of a span goes to "<layer>.self_s" unless its name is listed here;
# the other `scenarios` spans go to "scenarios.scenario_s" (see bucket()).
BUCKETS = {
    "scenarios.Scenario.state": "scenarios.state_s",
    "bounds.best_split_bound": "bounds.subset_search_s",
    "bounds.best_split_bound_overall": "bounds.subset_search_s",
    "bounds.fine_grained_sequence": "bounds.fine_grained_s",
    "bounds.fine_grained_bound": "bounds.fine_grained_s",
    "bounds.paired_cross_bound": "bounds.cross_s",
    "bounds.geometric_mean_bound": "bounds.multi_op_s",
    "bounds.triple_correlation_bound": "bounds.multi_op_s",
    "bounds.gram_matrix": "bounds.multi_op_s",
}
TIME_BUCKETS = ("cli.self_s", "scenarios.state_s", "scenarios.scenario_s", "moments.self_s",
                "linalg.self_s", "bounds.subset_search_s", "bounds.fine_grained_s",
                "bounds.cross_s", "bounds.multi_op_s", "bounds.self_s", "sampling.self_s",
                "selfcheck.self_s")

# The per-layer metrics with their units, in report order: those that every
# workload exercises, so none of them is 0 at the commit that added the
# benchmark. BENCHMARK.json's per_layer list must name exactly these.
PER_LAYER = [
    ("cli.self_s", "s"), ("cli.commands", "count"),
    ("scenarios.state_s", "s"), ("scenarios.state_calls", "count"),
    ("scenarios.scenario_s", "s"),
    ("moments.self_s", "s"), ("moments.delta_vector_calls", "count"),
    ("moments.modulus_pair_calls", "count"), ("moments.delta_useful_ratio", "ratio"),
    ("linalg.self_s", "s"), ("linalg.unitary_checks", "count"),
    ("linalg.validation_useful_ratio", "ratio"),
    ("bounds.subset_search_s", "s"), ("bounds.subset_searches", "count"),
    ("bounds.subsets_requested", "count"), ("bounds.search_useful_ratio", "ratio"),
    ("bounds.fine_grained_s", "s"), ("bounds.cross_s", "s"), ("bounds.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]

# Figures some workload never exercises (selfcheck never calls bound_report,
# only selfcheck samples), and the traced wall with the benchmark's own share
# of it. They are printed on run.py's '#' lines only.
PRINTED_ONLY = (
    [("moments.purify_calls", "count"), ("linalg.eig_calls", "count"),
     ("bounds.bound_report_calls", "count"), ("bounds.bound_report_p50_ms", "ms"),
     ("bounds.bound_report_tail_ms", "ms"), ("bounds.multi_op_s", "s"),
     ("sampling.self_s", "s"), ("sampling.draws", "count"), ("selfcheck.self_s", "s")]
    + [(f"selfcheck.suite_s.{s}", "s") for s in SUITES]
    + [("trace.wall_s", "s"), ("trace.bench_self_s", "s")]
)


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int  # -1 for a span the benchmark itself opened
    run: int


def bucket(name: str) -> str:
    """Time bucket a span's self time is charged to."""
    if name in BUCKETS:
        return BUCKETS[name]
    layer = name.split(".", 1)[0]
    return "scenarios.scenario_s" if layer == "scenarios" else f"{layer}.self_s"


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    lo = hi = None
    for start, end in sorted(intervals):
        if hi is None or start > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = start, end
        else:
            hi = max(hi, end)
    if hi is not None:
        total += hi - lo
    return total


def self_times(spans, window: tuple[float, float]) -> tuple[dict[int, float], float]:
    """Self time of every span, and the benchmark's own time in `window`.

    A span's self time is its duration minus the union of its child spans,
    clipped to the span. The benchmark's own time is the window minus the
    union of the top-level spans. For properly nested spans the self times
    plus the benchmark's own time sum to the window length.
    """
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))

    def covered(lo, hi, intervals):
        return union_length((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)

    own = {s.id: (s.end - s.start) - covered(s.start, s.end, children.get(s.id, ()))
           for s in spans}
    lo, hi = window
    return own, (hi - lo) - covered(lo, hi, children.get(-1, ()))


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _digest(a) -> tuple:
    a = np.ascontiguousarray(a)
    return a.shape, hash(a.tobytes())


class Tracer:
    """Wraps the public callables of the given layer modules while installed.

    Spans are kept in typed arrays (48 bytes each): a traced small_multi
    pass records about 150k of them.
    """

    def __init__(self, modules: dict):
        self.modules = modules
        self.names: list[str] = []
        self._cols = (array("q"), array("q"), array("d"), array("d"), array("q"), array("q"))
        self.calls: Counter = Counter()
        self.run = 0
        self.subsets_requested = 0
        self.distinct = {"delta": set(), "unitary": set(), "search": set()}
        self._stack: list[int] = []
        self._next_id = 0
        self._saved: list[tuple] = []
        self._hooks = {
            "moments.delta_vector": self._on_delta_vector,
            "linalg.unitary_deviation": self._on_unitary_check,
            "linalg.is_unitary": self._on_unitary_check,
            "bounds.best_split_bound": self._on_subset_search,
        }

    def _on_delta_vector(self, args, kwargs):
        A, psi = _arg(args, kwargs, 0, "A"), _arg(args, kwargs, 1, "psi")
        self.distinct["delta"].add((self.run, _digest(A), _digest(psi.amplitudes)))

    def _on_unitary_check(self, args, kwargs):
        self.distinct["unitary"].add((self.run, _digest(_arg(args, kwargs, 0, "M"))))

    def _on_subset_search(self, args, kwargs):
        pair, m = _arg(args, kwargs, 0, "pair"), _arg(args, kwargs, 1, "m")
        if 1 <= m <= pair.dim:
            self.subsets_requested += math.comb(pair.dim, m)
        self.distinct["search"].add((self.run, _digest(pair.x), _digest(pair.y), m))

    def _wrap(self, name: str, fn):
        hook = self._hooks.get(name)
        index = len(self.names)
        self.names.append(name)
        stack, calls = self._stack, self.calls
        ids, names, starts, ends, parents, runs = self._cols
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            if hook is not None:
                hook(args, kwargs)
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                ids.append(sid)
                names.append(index)
                starts.append(start)
                ends.append(end)
                parents.append(parent)
                runs.append(self.run)

        return traced

    def spans(self) -> list[Span]:
        """Every recorded span, in the order the calls returned."""
        ids, names, starts, ends, parents, runs = self._cols
        return [Span(i, self.names[n], s, e, p, r)
                for i, n, s, e, p, r in zip(ids, names, starts, ends, parents, runs)]

    def _targets(self):
        for layer, module in self.modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield module, attr, obj, f"{layer}.{attr}"
                elif inspect.isclass(obj):
                    for mattr, mobj in list(vars(obj).items()):
                        if not mattr.startswith("_") and (
                                inspect.isfunction(mobj)
                                or isinstance(mobj, (classmethod, staticmethod))):
                            yield obj, mattr, mobj, f"{layer}.{obj.__name__}.{mattr}"

    def install(self):
        for owner, attr, obj, name in list(self._targets()):
            if isinstance(obj, (classmethod, staticmethod)):
                wrapped = type(obj)(self._wrap(name, obj.__func__))
            else:
                wrapped = self._wrap(name, obj)
            self._saved.append((owner, attr, obj))
            setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._saved:
            owner, attr, obj = self._saved.pop()
            setattr(owner, attr, obj)

    def counts(self) -> dict:
        """Work counts of everything recorded; they depend only on arguments."""
        c = self.calls
        delta = c["moments.delta_vector"]
        checks = c["linalg.unitary_deviation"] + c["linalg.is_unitary"]
        searches = c["bounds.best_split_bound"]

        def ratio(useful, attempts):  # nothing attempted, nothing wasted
            return useful / attempts if attempts else 1.0

        return {
            "cli.commands": c["cli.main"],
            "scenarios.state_calls": c["scenarios.Scenario.state"],
            "moments.delta_vector_calls": delta,
            "moments.modulus_pair_calls": c["moments.modulus_pair"],
            "moments.purify_calls": c["moments.purify"],
            "moments.delta_useful_ratio": ratio(len(self.distinct["delta"]), delta),
            "linalg.unitary_checks": checks,
            "linalg.eig_calls": c["linalg.hermitian_eig"],
            "linalg.validation_useful_ratio": ratio(len(self.distinct["unitary"]), checks),
            "bounds.bound_report_calls": c["bounds.bound_report"],
            "bounds.subset_searches": searches,
            "bounds.subsets_requested": self.subsets_requested,
            "bounds.search_useful_ratio": ratio(len(self.distinct["search"]), searches),
            "sampling.draws": (c["sampling.random_unitary"] + c["sampling.random_state"]
                               + c["sampling.random_density"]),
        }

    def times(self, window: tuple[float, float]) -> dict:
        """Per-bucket self times, suite wall times and the benchmark's own time."""
        spans = self.spans()
        own, bench = self_times(spans, window)
        out = dict.fromkeys(TIME_BUCKETS, 0.0)
        out.update((f"selfcheck.suite_s.{s}", 0.0) for s in SUITES)
        for s in spans:
            out[bucket(s.name)] += own[s.id]
            if s.name.startswith("selfcheck.suite_"):
                key = f"selfcheck.suite_s.{s.name[len('selfcheck.suite_'):]}"
                out[key] = out.get(key, 0.0) + (s.end - s.start)
        out["trace.wall_s"] = window[1] - window[0]
        out["trace.bench_self_s"] = bench
        return out

    def report_ms(self) -> list[float]:
        _, names, starts, ends, _, _ = self._cols
        index = self.names.index("bounds.bound_report")
        return [1e3 * (e - s) for n, s, e in zip(names, starts, ends) if n == index]


def report_latency(durations_ms: list[float]) -> dict:
    """p50 and tail of bound_report latency; empty when no report ran."""
    if not durations_ms:
        return {}
    return {"bounds.bound_report_p50_ms": median(durations_ms),
            "bounds.bound_report_tail_ms": tail(durations_ms)[1]}
