from __future__ import annotations

import ast
import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uur import bounds, cli, errors, moments, sampling, scenarios
from uur.moments import ModulusPair

import oracles
from conftest import random_pair, refused
from oracles import (
    delta_vector, fine_grained_level, from_deltas, modulus_pair, per_size_split_bound, random_state,
    random_unitary, split_bound_blend, state_at, variance_pure)


def pair_of(x, y) -> ModulusPair:
    return ModulusPair(np.array(x, float), np.array(y, float))


def deltas_of(ops, psi) -> list[moments.DeltaVector]:
    return [delta_vector(U, psi) for U in ops]


# --- correlation bound -------------------------------------------------------

def test_correlation_bound_zero_for_zero_vectors():
    assert bounds.correlation_bound(pair_of([0, 0], [0, 0])) == 0.0


def test_correlation_bound_real_positive_case():
    assert bounds.correlation_bound(pair_of([1, 2], [2, 1])) == pytest.approx(16.0)


# --- split bound over a subset ----------------------------------------------

def test_split_bound_full_set_gives_norm_product():
    p = pair_of([1, 2, 3], [3, 1, 2])
    full = (1, 2, 3)
    norms = float(np.dot(p.x, p.x) * np.dot(p.y, p.y))
    assert bounds.split_bound(p, full) == pytest.approx(norms)


def test_split_bound_disjoint_supports_vanish():
    assert bounds.split_bound(pair_of([1, 0], [0, 1]), (1,)) == pytest.approx(0.0)


def test_split_bound_equal_vectors_saturate():
    assert bounds.split_bound(pair_of([1, 1], [1, 1]), (1,)) == pytest.approx(4.0)


def test_split_bound_rejects_foreign_subset():
    # A block is checked against the dimension of the pair it splits.
    with refused("indices (1, 3) out of range 1..2"):
        bounds.split_bound(pair_of([1, 1], [1, 1]), (3, 1))


def test_subset_selection_validation():
    # A block of split_bound: distinct indices in 1..n, in any order and any iterable.
    p = pair_of([1, 2, 3], [3, 1, 2])
    for block, message in (((0,), "indices (0,) out of range 1..3"),
                           ((1, 1), "subset has repeated indices: (1, 1)"),
                           ((4,), "indices (4,) out of range 1..3"),
                           ((), "subset must not be empty"),
                           (range(1, 1), "subset must not be empty"),
                           (range(1, 5), "indices (1, 2, 3, 4) out of range 1..3")):
        with refused(message):
            bounds.split_bound(p, block)


@pytest.mark.parametrize("n, indices, message", [
    (3, (1.7, 2.2), "subset index must be an integer, got 1.7"),
    (3, (2, 1.0), "subset index must be an integer, got 1.0"),
    (3, ("1",), "subset index must be an integer, got '1'"),
])
def test_subset_selection_refuses_non_integers(n, indices, message):
    # int() would truncate 1.7 to 1 and parse "1"; a block must name its indices exactly.
    with refused(message):
        bounds.split_bound(pair_of(np.ones(n), np.ones(n)), indices)


def test_subset_selection_takes_numpy_integers():
    p = pair_of([1, 2, 3], [3, 1, 2])
    want = bounds.split_bound(p, (1, 3))
    assert bounds.split_bound(p, (np.int64(3), np.int32(1))) == want
    assert bounds.split_bound(p, np.array([3, 1])) == want
    assert bounds.split_bound(p, range(1, 3)) == bounds.split_bound(p, (1, 2))
    assert bounds.split_bound(p, range(1, 4)) == bounds.split_bound(p, [3, 2, 1])
    with refused("subset index must be an integer, got 1.9"):
        bounds.split_bound(p, (1.9,))


# --- blended bound ------------------------------------------------------------

def test_split_bound_blend_endpoints():
    p = pair_of([1, 2, 3], [3, 1, 2])
    s = (2,)
    k = bounds.split_bound(p, s)
    norms = float(np.dot(p.x, p.x) * np.dot(p.y, p.y))
    assert split_bound_blend(p, s, 1.0) == pytest.approx(k)
    assert split_bound_blend(p, s, 0.0) == pytest.approx(norms)


def test_split_bound_blend_mid_value():
    # x = y makes the split term saturate, so every blend equals 25.
    p = pair_of([1, 2], [1, 2])
    assert split_bound_blend(p, (1,), 0.5) == pytest.approx(25.0)


def test_split_bound_blend_rejects_out_of_range_weight():
    p = pair_of([1, 2], [1, 2])
    for bad in (-0.1, 1.1):
        with refused(f"blend weight must lie in [0, 1], got {bad}"):
            split_bound_blend(p, (1,), bad)


def test_split_bound_blend_monotone_in_weight():
    p = pair_of([1, 2, 3, 1], [2, 1, 1, 3])
    s = (1, 3)
    vals = [split_bound_blend(p, s, v) for v in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


# --- exhaustive subset search --------------------------------------------------

def test_best_split_bound_single_index_vector():
    val, sel = bounds.best_split_bound(pair_of([2.0], [3.0]), 1)
    assert val == pytest.approx(36.0)
    assert sel == (1,)


def test_best_split_bound_tie_picks_lexicographic():
    val, sel = bounds.best_split_bound(pair_of([1, 2], [2, 1]), 1)
    assert val == pytest.approx(16.0)
    assert sel == (1,)


def test_best_split_bound_beats_the_leading_block():
    gen = sampling.trial_generator(seed=11, trial=0)
    for trial in range(20):
        A, B, psi = random_pair(11, trial, 5)
        p = modulus_pair(A, B, psi)
        for m in range(1, 5):
            first = bounds.split_bound(p, range(1, m + 1))
            best, _ = bounds.best_split_bound(p, m)
            assert best >= first - 1e-12


def test_best_split_bound_cap_is_enforced():
    p = pair_of(np.ones(30), np.ones(30))
    with pytest.raises(errors.SearchSpaceTooLarge) as err:
        bounds.best_split_bound(p, 15, cap=1000)
    assert str(err.value) == f"binomial(30, 15) = {math.comb(30, 15)} subsets exceeds the cap of 1000"


@pytest.mark.parametrize("m", [0, 4])
def test_best_split_bound_refuses_a_block_size_outside_the_dimension(m):
    with refused(f"block size {m} out of range 1..3"):
        bounds.best_split_bound(pair_of([1, 2, 3], [3, 1, 2]), m)


def test_best_split_bounds_reports_achieving_m():
    p = pair_of([1, 2, 3, 4], [4, 3, 2, 1])
    table = bounds.best_split_bounds(p)
    assert [len(sel) for _, sel in table] == [1, 2]
    val, sel = max(table, key=lambda entry: entry[0])
    m = len(sel)
    assert 1 <= m <= 2
    per_m = max(bounds.best_split_bound(p, mm)[0] for mm in (1, 2))
    assert val == pytest.approx(per_m)


def brute_force_split(p, m):
    """First maximum of split_bound over every block of size m, in lexicographic order."""
    best, best_sel = -1.0, None
    for combo in itertools.combinations(range(1, p.dim + 1), m):
        val = bounds.split_bound(p, combo)
        if val > best:
            best, best_sel = val, combo
    return best, best_sel


# Small integer moduli force ties between blocks; wide floats rarely tie.
tied_moduli = st.integers(min_value=0, max_value=2).map(float)
wide_moduli = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda half: st.tuples(*[st.tuples(st.one_of(tied_moduli, wide_moduli),
                                       st.one_of(tied_moduli, wide_moduli))] * (2 * half))))
def test_best_split_bound_half_size_matches_full_enumeration(entries):
    p = pair_of([e[0] for e in entries], [e[1] for e in entries])
    m = p.dim // 2
    val, sel = bounds.best_split_bound(p, m)
    want_val, want_sel = brute_force_split(p, m)
    assert val == want_val
    assert sel == want_sel


def test_best_split_bound_half_size_ties_keep_lexicographic_block():
    # Every block of size 2 ties with its complement, and {1, 4} ties {2, 3}.
    p = pair_of([1, 2, 2, 1], [1, 2, 2, 1])
    assert bounds.best_split_bound(p, 2) == brute_force_split(p, 2)
    assert bounds.best_split_bound(p, 2)[1] == (1, 2)
    flat = pair_of([1, 1, 1, 1, 1, 1], [1, 1, 1, 1, 1, 1])
    assert bounds.best_split_bound(flat, 3)[1] == (1, 2, 3)


# Exact zeros, in both coordinates or in one, make free indices; values
# rounded to one decimal make blocks tie.
rounded_modulus = st.floats(min_value=0.0, max_value=3.0).map(lambda t: round(t, 1))
coordinate = st.one_of(st.just((0.0, 0.0)),
                       st.tuples(st.just(0.0), rounded_modulus),
                       st.tuples(rounded_modulus, st.just(0.0)),
                       st.tuples(rounded_modulus, rounded_modulus),
                       st.tuples(wide_moduli, wide_moduli))


@settings(max_examples=120, deadline=None)
@given(st.lists(coordinate, min_size=1, max_size=11))
def test_best_split_bound_matches_full_enumeration_with_free_indices(entries):
    p = pair_of([e[0] for e in entries], [e[1] for e in entries])
    for m in range(1, p.dim + 1):
        val, sel = bounds.best_split_bound(p, m)
        want_val, want_sel = brute_force_split(p, m)
        assert val == want_val
        assert sel == want_sel


def test_best_split_bound_pads_blocks_with_the_smallest_free_indices():
    # Only index 3 carries weight; every block holding it ties, and so does
    # every block without it, so the lexicographically smallest block wins.
    p = pair_of([0, 0, 2, 0, 0], [0, 0, 3, 0, 0])
    assert bounds.best_split_bound(p, 2) == (36.0, (1, 2))
    assert bounds.best_split_bound(pair_of([0, 0, 0], [0, 0, 0]), 2) == (0.0, (1, 2))


def count_split_values(monkeypatch) -> list:
    """One entry per part the search evaluates."""
    calls = []
    real = bounds._split_value
    monkeypatch.setattr(bounds, "_split_value",
                        lambda x2, y2, inside: calls.append(1) or real(x2, y2, inside))
    return calls


@pytest.mark.parametrize("theta, parts", [([], 1), (["--theta-min", "1.0"], 4)],
                         ids=["theta-0", "theta-1"])
def test_ex1_row_evaluates_only_support_blocks(monkeypatch, capsys, theta, parts):
    # An ex1 state at n = 16 has at most 3 support indices (one at theta 0);
    # the full enumeration evaluated 32,767 blocks for this row and the
    # per-size searches 59. The one pass evaluates each support part of at
    # most half the support once: the empty part, and each single index of
    # {1, 2, 16} at theta 1. The row's k_m (split_bound) makes one more call.
    calls = count_split_values(monkeypatch)
    assert cli.main(["sweep", "--example", "ex1", "--dim", "16", "--steps", "1",
                     "--format", "csv"] + theta) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2  # header and one row
    assert len(calls) == parts + 1


def test_dense_ex2_row_evaluates_every_part_of_at_most_half_the_support_once(monkeypatch):
    # Sizes 1..7 in full and the 6,435 size-8 parts holding index 1: the
    # count the per-size searches made, now from one pass.
    calls = count_split_values(monkeypatch)
    scen = scenarios.scenario("ex2", 16)
    psi = state_at(scen, 0.7)
    pair = from_deltas(*(delta_vector(moments.Unitary(U), psi) for _, U in scen.operators))
    table = bounds.best_split_bounds(pair)
    assert len(calls) == 32_767 == sum(math.comb(16, t) for t in range(1, 8)) + math.comb(15, 7)
    calls.clear()
    assert bounds.best_split_bound(pair, 8) == table[-1]
    assert len(calls) == math.comb(15, 7)


def test_bound_report_argmax_is_the_oracle_block_as_a_tuple_of_ints():
    # The first maximum over the sizes 1..n/2 of the per-size search, on
    # random dense pairs and on a sparse ex1 n = 16 row (blocks padded with
    # free indices).
    scen = scenarios.scenario("ex1", 16)
    psi = state_at(scen, 1.0)
    ex1 = from_deltas(*(delta_vector(moments.Unitary(U), psi) for _, U in scen.operators))
    pairs = [modulus_pair(*random_pair(25, trial, 2 + trial)) for trial in range(6)]
    for p in [ex1, *pairs]:
        report = bounds.bound_report(p, 1)
        table = [per_size_split_bound(p, m) for m in range(1, p.dim // 2 + 1)]
        assert (report.k_tilde, report.k_tilde_argmax) == max(table, key=lambda entry: entry[0])
        assert type(report.k_tilde_argmax) is tuple
        assert all(type(i) is int for i in report.k_tilde_argmax)


def test_bound_report_k_tilde_m_equals_search_at_every_block_size():
    for trial in range(6):
        n = 2 + trial
        p = modulus_pair(*random_pair(23, trial, n))
        for m in range(1, n):
            assert bounds.bound_report(p, m).k_tilde_m == bounds.best_split_bound(p, m)[0]


def count_split_searches(monkeypatch) -> list:
    """The block sizes of each split-search pass, one entry per pass."""
    calls = []
    real = bounds._split_search
    monkeypatch.setattr(bounds, "_split_search", lambda pair, sizes, cap:
                        calls.append(list(sizes)) or real(pair, sizes, cap))
    return calls


def count_padded_blocks(monkeypatch) -> list:
    """The block size of each block the search pads with free indices and sorts, one entry per block."""
    calls = []
    real = bounds._block
    monkeypatch.setattr(bounds, "_block", lambda record, j, m: calls.append(m) or real(record, j, m))
    return calls


def test_bound_report_searches_each_block_size_once(monkeypatch):
    # One pass per report serves the sizes 1..3; m = 4..6 read them.
    p = modulus_pair(*random_pair(24, 0, 7))
    calls = count_split_searches(monkeypatch)
    for m in range(1, 7):
        calls.clear()
        rep = bounds.bound_report(p, m)
        assert calls == [[1, 2, 3]]
        assert rep.k_tilde_m == per_size_split_bound(p, m)[0]


@pytest.mark.parametrize("theta", [0.2, 0.7, 1.0, 1.3])
def test_bound_report_pads_only_the_block_it_returns(monkeypatch, theta):
    # An ex1 n = 16 row has support {1, 2, 16} and 13 free indices. Its sizes
    # 1..8 take 29 (size, part size) candidates, and the pick once padded and
    # sorted each of them before comparing values. A report returns one
    # block, the argmax's, and pads one; the table returns all 8 and pads
    # one block of each size, from the tied winners of its part sizes.
    scen = scenarios.scenario("ex1", 16)
    psi = state_at(scen, theta)
    p = from_deltas(*(delta_vector(moments.Unitary(U), psi) for _, U in scen.operators))
    x2, y2 = oracles._squares(p)
    s = sum(1 for a, b in zip(x2, y2) if a or b)
    assert (s, sum(min(m, s) - max(0, m - (16 - s)) + 1 for m in range(1, 9))) == (3, 29)
    padded = count_padded_blocks(monkeypatch)
    report = bounds.bound_report(p, 8)
    assert padded == [len(report.k_tilde_argmax)]
    table = [per_size_split_bound(p, m) for m in range(1, 9)]
    assert (report.k_tilde, report.k_tilde_argmax) == max(table, key=lambda entry: entry[0])
    padded.clear()
    assert bounds.best_split_bounds(p) == table
    assert padded == list(range(1, 9))


@pytest.mark.parametrize("x, y, pinned", [
    ((1e200, 0, 3, 0), (0, 1, 2, 0),
     [(math.inf, (2,)), (math.inf, (1, 2)), (math.inf, (1, 2, 3)), (math.inf, (1, 2, 3, 4))]),
    ((1e200, 1e200), (0, 0), [(-1.0, ())] * 2),
    ((1e200, 1e200, 0), (0, 0, 0), [(-1.0, ())] * 3)],
    ids=["inf-square-beside-a-zero", "all-nan", "all-nan-beside-a-free-index"])
def test_nan_part_values_never_win(x, y, pinned):
    # A 1e200 modulus squares to inf, and inf * 0.0 in a block term is NaN.
    # Every size's value starts at -1.0 and moves only on >, so a NaN part
    # never wins; where every part is NaN the search gives (-1.0, ()), as the
    # per-size search does, even where a free index could pad the part.
    p = pair_of(x, y)
    with np.errstate(all="ignore"):
        want = [per_size_split_bound(p, m) for m in range(1, p.dim + 1)]
        assert [bounds.best_split_bound(p, m) for m in range(1, p.dim + 1)] == want == pinned
        assert bounds.best_split_bounds(p) == want[:p.dim // 2]
        for m in range(1, p.dim):
            report = bounds.bound_report(p, m)
            assert (report.k_tilde, report.k_tilde_argmax) == max(want[:p.dim // 2], key=lambda e: e[0])
            # Every link with a NaN member is broken and names it (once); i_d is NaN throughout.
            nan = [name for name in ("k_m", "k_m_v", "variance_product") if math.isnan(getattr(report, name))]
            assert report.validate() == [f"{name} is NaN" for name in nan] + [
                f"i_{level} is NaN" for level in range(2, p.dim + 1)]


def test_bound_report_fields_are_the_public_functions_bits():
    # A report shares its squares between the search, the variance product,
    # the interpolation family and the cross bound; each field keeps the
    # float (repr, sign bits and NaN included) of the public function it stands for.
    huge = [pair_of([1e200, 0, 3, 0], [0, 1, 2, 0]), pair_of([1.5e154, 2.0, 3.0], [3.0, 2.0, 1.0]),
            pair_of([1e200, 2.0, 3.0, 4.0], [1.0, 1e200, 2.0, 3.0])]
    pairs = [p for p in oracle_pairs(2901, 400) if p.dim >= 2]
    with np.errstate(all="ignore"):
        for p in [*huge, *pairs]:
            n = p.dim
            table = bounds.best_split_bounds(p)
            for m in {1, n // 2, n - 1}:
                report = bounds.bound_report(p, m)
                want = (bounds.variance_product(p), bounds.correlation_bound(p),
                        bounds.best_split_bound(p, m)[0], max(table, key=lambda entry: entry[0]),
                        bounds.fine_grained_sequence(p), bounds.paired_cross_bound(p) if n >= 3 else None)
                got = (report.variance_product, report.lb, report.k_tilde_m,
                       (report.k_tilde, report.k_tilde_argmax), report.i_d, report.i_1_prime)
                assert repr(got) == repr(want), (p.x, p.y, m)


def test_block_symmetry_between_m_and_complement():
    for trial in range(10):
        A, B, psi = random_pair(21, trial, 6)
        p = modulus_pair(A, B, psi)
        for m in (1, 2, 3):
            a, _ = bounds.best_split_bound(p, m)
            b, _ = bounds.best_split_bound(p, 6 - m)
            assert a == pytest.approx(b, abs=1e-12)


def oracle_pairs(seed: int, count: int):
    """All-ones and all-zero pairs for n = 1..12, then count seeded random
    pairs: dense, small integers (ties and free indices), sparse (free
    indices), x = y, and ones with zeros (ties padded with free indices).
    Every fourth pair has n in 1..12, the others n in 1..8: a dense n = 12
    pair costs the two searches about 12 ms."""
    for n in range(1, 13):
        yield pair_of(np.ones(n), np.ones(n))
        yield pair_of(np.zeros(n), np.zeros(n))
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(1, 13 if k % 4 == 0 else 9))
        kind = k % 5
        if kind == 0:
            x, y = rng.random(n), rng.random(n)
        elif kind == 1:
            x, y = rng.integers(0, 3, (2, n)).astype(float)
        elif kind == 2:
            x, y = rng.random((2, n)) * (rng.random((2, n)) < 0.4)
        elif kind == 3:
            x = y = np.round(rng.random(n) * (rng.random(n) < 0.7), 1)
        else:
            x, y = (rng.random((2, n)) < 0.8).astype(float)
        yield pair_of(x, y)


def test_one_pass_matches_the_per_size_search_on_3000_pairs():
    # Value and block for every size, and the whole table (sizes 1..n/2), with ==.
    for p in oracle_pairs(2101, 3000):
        want = [per_size_split_bound(p, m) for m in range(1, p.dim + 1)]
        assert bounds.best_split_bounds(p) == want[:max(1, p.dim // 2)]
        for m in range(1, p.dim + 1):
            assert bounds.best_split_bound(p, m) == want[m - 1], (p.x, p.y, m)


def test_no_search_evaluates_more_parts_than_the_per_size_search(monkeypatch):
    # For one size, and for the table of sizes 1..n/2, against the oracle's count.
    new, old = count_split_values(monkeypatch), []
    real = oracles._split_value
    monkeypatch.setattr(oracles, "_split_value",
                        lambda x2, y2, inside: old.append(1) or real(x2, y2, inside))
    for p in oracle_pairs(2102, 600):
        half = range(1, max(1, p.dim // 2) + 1)
        for search, per_size in [(lambda: bounds.best_split_bounds(p), half)] + [
                (lambda m=m: bounds.best_split_bound(p, m), [m]) for m in range(1, p.dim + 1)]:
            new.clear()
            old.clear()
            search()
            for m in per_size:
                per_size_split_bound(p, m)
            assert len(new) <= len(old), (p.x, p.y, list(per_size))


def test_the_cap_is_judged_on_every_nominal_size_before_any_part(monkeypatch):
    # binomial(12, 5) = 792 is the first size of the table over the cap; no
    # part of the smaller sizes is evaluated first. A sparse pair is judged
    # on the same nominal counts.
    calls = count_split_values(monkeypatch)
    for x in (np.ones(12), np.r_[1.0, np.zeros(11)]):
        with pytest.raises(errors.SearchSpaceTooLarge, match=r"binomial\(12, 5\) = 792 "):
            bounds.best_split_bounds(pair_of(x, x), cap=500)
        assert calls == []


# --- table pass ----------------------------------------------------------------

def searched(X, Y, sizes, m: int, table: bool) -> list:
    """Each row's (values, k_m, blocks) from one block search, every group on the table or every row on its own pass
    (which hands back the row's pair; a tabled row has none)."""
    with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
        patch.setattr(bounds, "TABLE_MIN", 0 if table else math.inf)
        X, Y = np.asarray(X, float), np.asarray(Y, float)
        found, pairs = bounds._searches(X, Y, X ** 2, Y ** 2, sizes, m, bounds.DEFAULT_CAP)
    assert [pair is None for pair in pairs] == [table] * len(X)
    return [(values, k_m, [bounds._block(record, j, size) for j, size in enumerate(sizes)])
            for values, k_m, record in found]


def ex1_rows(n: int, thetas) -> tuple[np.ndarray, np.ndarray]:
    """The moduli rows of ex1 at dimension n on the angles: one support index at theta 0, three elsewhere."""
    scen = scenarios.scenario("ex1", n)
    P = scen.state(thetas)
    X, Y = (moments.delta_stack(moments.Unitary(U).matrix[None], P)[2] for _, U in scen.operators)
    return X, Y


def special_stack(seed: int, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k seeded rows of dimension n, cycling through row kinds that share a block: dense, zeros in one or both
    coordinates (other supports), all zero, ex1 at theta 0 (one support index), proportional, equal entries,
    small integers (ties), an even support whose half parts tie their complements, and 1e200 beside zeros
    (an inf square: NaN parts)."""
    rng = np.random.default_rng([seed, n, k])
    ex1_x, ex1_y = ex1_rows(n, [0.0])
    X, Y = np.empty((k, n)), np.empty((k, n))
    for r in range(k):
        x, y = rng.random(n), rng.random(n)
        kind = r % 9
        if kind == 1:
            x, y = x * (rng.random(n) < 0.6), y * (rng.random(n) < 0.6)
        elif kind == 2:
            x, y = np.zeros(n), np.zeros(n)
        elif kind == 3:
            x, y = ex1_x[0], ex1_y[0]
        elif kind == 4:
            y = 2.0 * x
        elif kind == 5:
            x, y = np.full(n, 0.5), np.ones(n)
        elif kind == 6:
            x, y = rng.integers(0, 3, (2, n)).astype(float)
        elif kind == 7:
            keep = np.arange(n) < 2 * (n // 2)
            x, y = x * keep, np.where(keep, x[::-1], 0.0)
        elif kind == 8:
            x[0], y[rng.random(n) < 0.5] = 1e200, 0.0
        X[r], Y[r] = x, y
    return X, Y


@pytest.mark.parametrize("n, k", [(2, 70), (3, 1), (4, 65), (5, 40), (6, 23), (7, 12), (8, 9), (9, 5),
                                  (10, 3), (11, 2), (12, 2)])
def test_table_pass_is_the_per_pair_pass_and_the_per_size_oracle(n, k):
    # Every size's value and smallest block, ==, on a block whose rows have different supports.
    X, Y = special_stack(37, n, k)
    sizes = range(1, n + 1)
    for m in sorted({1, n // 2, n}):
        table = searched(X, Y, sizes, m, table=True)
        assert repr(table) == repr(searched(X, Y, sizes, m, table=False))  # a NaN k_m too
        with np.errstate(all="ignore"):
            for (values, k_m, blocks), x, y in zip(table, X, Y):
                pair = ModulusPair(x, y)
                assert list(zip(values, blocks)) == [per_size_split_bound(pair, size) for size in sizes]
                assert repr(k_m) == repr(bounds.split_bound(pair, range(1, m + 1)))


@pytest.mark.parametrize("n", [2, 5, 8, 11])
def test_table_leading_block_is_split_bound_at_every_size(n):
    X, Y = special_stack(38, n, 18)
    with np.errstate(all="ignore"):
        want = [[bounds.split_bound(ModulusPair(x, y), range(1, m + 1)) for x, y in zip(X, Y)]
                for m in range(1, n + 1)]
    got = [[k_m for _, k_m, _ in searched(X, Y, [1], m, table=True)] for m in range(1, n + 1)]
    assert repr(got) == repr(want)  # NaN rows too


def test_table_ties_and_nan_rows_keep_the_per_pair_picks():
    # Equal entries tie every part of a size; proportional rows tie up to rounding; the half parts of an even
    # support tie their complements; a 1e200 modulus beside zeros makes NaN parts, and all NaN gives (-1.0, ()).
    X = [[1, 1, 1, 1, 1, 1], [1, 2, 2, 1, 0, 0], [0.3, 0.1, 0.2, 0.6, 0.5, 0.4], [1e200, 0, 3, 0, 0, 0],
         [1e200, 1e200, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0]]
    Y = [[1, 1, 1, 1, 1, 1], [1, 2, 2, 1, 0, 0], [0.6, 0.2, 0.4, 1.2, 1.0, 0.8], [0, 1, 2, 0, 0, 0],
         [0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0]]
    table = searched(X, Y, range(1, 7), 3, table=True)
    assert repr(table) == repr(searched(X, Y, range(1, 7), 3, table=False))
    assert [blocks[2] for _, _, blocks in table][:2] == [(1, 2, 3), (1, 2, 5)]
    assert table[4][0] == [-1.0] * 6 and table[4][2] == [()] * 6
    assert table[5][2] == [(1,), (1, 2), (1, 2, 3), (1, 2, 3, 4), (1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 6)]


@pytest.mark.parametrize("bits", [0, 1, 2, 3, 5])
def test_table_in_chunks_is_the_table_in_one(monkeypatch, bits):
    # Past 2^TABLE_BITS masks a row's high mask bits go in chunks, and the rows go in chunks below it;
    # every chunk holds at most 2^TABLE_BITS masks of its rows, and the result is the same.
    X, Y = special_stack(39, 9, 20)
    whole = searched(X, Y, range(1, 10), 4, table=True)
    shapes, real = [], bounds._subset_sums
    monkeypatch.setattr(bounds, "TABLE_BITS", bits)
    monkeypatch.setattr(bounds, "_subset_sums", lambda v: shapes.append(v.shape) or real(v))
    assert repr(searched(X, Y, range(1, 10), 4, table=True)) == repr(whole)
    assert shapes and all(rows << low <= 1 << bits for _, rows, low in shapes)


def test_a_dense_ex2_row_fills_one_table_chunk(monkeypatch, capsys):
    # Three dense rows at n = 16 are three chunks of 2^16 masks, not one table of 3 x 2^16.
    shapes, real = [], bounds._subset_sums
    monkeypatch.setattr(bounds, "_subset_sums", lambda v: shapes.append(v.shape) or real(v))
    assert cli.main(["sweep", "--example", "ex2", "--dim", "16", "--steps", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4
    assert shapes == [(2, 1, 16)] * 3


block_rows = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.lists(st.lists(coordinate, min_size=n, max_size=n), min_size=1, max_size=4))


@settings(max_examples=100, deadline=None)
@given(block_rows)
def test_table_pass_matches_full_enumeration(rows):
    X = [[e[0] for e in row] for row in rows]
    Y = [[e[1] for e in row] for row in rows]
    n = len(X[0])
    for (values, k_m, blocks), x, y in zip(searched(X, Y, range(1, n + 1), n, table=True), X, Y):
        pair = pair_of(x, y)
        assert list(zip(values, blocks)) == [brute_force_split(pair, m) for m in range(1, n + 1)]
        assert k_m == bounds.split_bound(pair, range(1, n + 1))


def test_block_reports_are_the_single_reports_row_by_row():
    # bound_reports on a 70-row block (table side, fields in one pass) gives each row's bound_report and the
    # means of the row's own one-row call (per-pair side), field for field and compared by repr, the rows of
    # 1e200 beside zeros (NaN fields) too; it names the rows whose validate is not empty, with or without means.
    X, Y = special_stack(40, 4, 70)
    Z = np.random.default_rng(40).random((70, 4))
    with np.errstate(all="ignore"):
        for m in (1, 2, 3):
            reports, broken, means = bounds.bound_reports([X, Y, Z], m, 0.3)
            singles = [bounds.bound_report(ModulusPair(x, y), m, 0.3) for x, y in zip(X, Y)]
            assert repr(reports) == repr(singles) and reports[:8] == singles[:8]
            assert broken == [r for r, report in enumerate(singles) if report.validate()] == list(range(8, 70, 9))
            assert repr(bounds.bound_reports([X, Y], m, 0.3)) == repr((reports, broken, None))
            assert repr(means) == repr([bounds.bound_reports([x[None], y[None], z[None]], m, 0.3)[2][0]
                                        for x, y, z in zip(X, Y, Z)])


@pytest.mark.parametrize("ell", [3, 4])
@pytest.mark.parametrize("k", [bounds.BLOCK_MIN - 1, 20, 70])
def test_block_means_are_the_one_row_calls_means(k, ell):
    # Each row's means in a k-row block, compared by repr (NaN too), are those of its own one-row call, whether
    # the later pairs are searched per pair (k = 7) or by table (k = 20, 70), on every kind of block.
    for case, stacks in block_cases(46, 5, k).items():
        stacks = [*stacks, *block_cases(47, 5, k)[case]][:ell]
        with np.errstate(all="ignore"):
            means = bounds.bound_reports(stacks, 2)[2]
            rows = [bounds.bound_reports([row[None] for row in rows], 2)[2][0] for rows in zip(*stacks)]
        assert repr(means) == repr(rows), case


def block_cases(seed: int, n: int, k: int) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Blocks of k rows of dimension n: special_stack's rows (from k = 9 on, a 1e200 row makes a diagonal sum
    inf and the one-pass form takes every index); the same rows with each 1e200 row made finite (the union
    support); those rows with two columns zero in every row (a union support with gaps); ex1 rows (one or
    three support indices per row); ex1 rows at theta 0 (one support index in all) and all-zero rows (none);
    and tiny moduli whose C-pow squares underflow to 0.0 beside nonzero ones."""
    X, Y = special_stack(seed, n, k)
    huge = (X == 1e200).any(axis=1)[:, None]
    finite = np.where(huge, 0.5, X), np.where(huge, 0.25, Y)
    gaps = tuple(np.where(np.isin(np.arange(n), [n // 2, n - 1]), 0.0, q) for q in finite)
    tiny = tuple(np.where(np.random.default_rng([seed, n, k]).random((k, n)) < 0.3, 1e-170, q) for q in finite)
    return {"special": (X, Y), "finite": finite, "gaps": gaps, "ex1": ex1_rows(n, np.linspace(0.0, 3.0, k)),
            "ex1 at 0": ex1_rows(n, [0.0] * k), "zero": (np.zeros((k, n)), np.zeros((k, n))), "tiny": tiny}


@pytest.mark.parametrize("k", [bounds.BLOCK_MIN - 1, bounds.BLOCK_MIN, 64, 70])
@pytest.mark.parametrize("n", range(2, 13))
def test_block_fields_are_the_single_functions_bits(n, k):
    # The one-pass fields of each row, compared by repr (NaN and -0.0 too), are the single-pair functions'
    # (n = 2 has no i_1', n = 3 an empty x[3:]); rows whose supports differ from the block's union support add
    # that row only +0.0 terms.
    assert k >= 1, "a block below the crossover holds a row"
    for case, (X, Y) in block_cases(41, n, k).items():
        with np.errstate(all="ignore"):
            vp, lb, family, cross = bounds._block_fields(X, Y, X ** 2, Y ** 2)
            got = list(zip(vp.tolist(), lb.tolist(), family.tolist(), [None] * k if cross is None else cross.tolist()))
            want = [(bounds.variance_product(p), bounds.correlation_bound(p), list(bounds.fine_grained_sequence(p)),
                     bounds.paired_cross_bound(p) if n >= 3 else None) for p in map(ModulusPair, X, Y)]
        assert repr(got) == repr(want), case


def test_a_block_raises_the_first_warning_the_rows_raise():
    # Under warnings as errors a block holding a 1e200 row stops at the warning the per-row path stops at.
    X, Y = special_stack(42, 5, max(bounds.BLOCK_MIN, 9))  # row 8 is special_stack's first 1e200 row
    assert (X == 1e200).any(axis=1).tolist().index(True) == 8 and len(X) >= bounds.BLOCK_MIN
    raised = []
    for block in (lambda: bounds.bound_reports([X, Y], 2),
                  lambda: [bounds.bound_report(ModulusPair(x, y), 2) for x, y in zip(X, Y)]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning) as caught:
                block()
        raised.append(str(caught.value))
    assert raised == ["overflow encountered in square"] * 2


@pytest.mark.parametrize("k", [bounds.BLOCK_MIN - 1, 20])
def test_a_block_in_fortran_order_is_its_c_ordered_copy(k):
    # The block functions read a strided stack in C order: numpy's row sums and BLAS add up its rows as they
    # add up contiguous ones, on either side of the crossover.
    assert k >= 1, "a block below the crossover holds a row"
    X, Y = block_cases(43, 9, k)["finite"]
    Z = np.random.default_rng(43).random((k, 9))
    reports, _, means = bounds.bound_reports([X, Y, Z], 4)
    F = [np.asfortranarray(q) for q in (X, Y, Z)]
    assert bounds.bound_reports(F[:2], 4) == (reports, [], None)
    assert bounds.bound_reports(F, 4) == (reports, [], means)


@pytest.mark.parametrize("stacks, message", [
    ((np.ones((2, 3)), np.ones((2, 2))), "moduli stacks must be 2-D of one shape, got (2, 3) and (2, 2)"),
    ((np.ones(3), np.ones(3)), "moduli stacks must be 2-D of one shape, got (3,) and (3,)"),
    ((np.ones((2, 0)), np.ones((2, 0))), "modulus vectors must not be empty"),
    ((np.ones((3, 3)), np.array([[1, 1, 1], [1, -1, np.nan], [1, 1, 1]])), "modulus vectors must be finite"),
    ((np.ones((3, 3)), np.array([[1, 1, 1], [1, 1, 1], [1, 1, -0.5]])), "modulus vectors must be nonnegative")])
def test_a_block_is_checked_by_one_test_and_refused_as_its_row(stacks, message):
    # A bad row is refused with the message ModulusPair gives that row, by the test and by a block's report.
    with refused(message):
        ModulusPair.checked_stacks(*stacks)
    with refused(message):
        bounds.bound_reports(list(stacks), 1)


@pytest.mark.parametrize("row", [0, 2])
@pytest.mark.parametrize("bad, message", [
    (np.nan, "modulus vectors must be finite"),
    (np.inf, "modulus vectors must be finite"),
    (-0.25, "modulus vectors must be nonnegative")])
def test_a_pair_block_is_checked_as_its_rows_pairs(row, bad, message):
    # A two-operator block is checked by checked_stacks, as a block of more operators is: a NaN, inf or negative
    # modulus in either stack is refused with the message of the pair holding that row, and a ragged pair of
    # stacks with their shapes.
    X, Y = block_cases(48, 4, 3)["finite"]
    for side in (0, 1):
        moduli = [X.copy(), Y.copy()]
        moduli[side][row, 1] = bad
        with refused(message):
            ModulusPair(moduli[0][row], moduli[1][row])
        with refused(message):
            bounds.bound_reports(moduli, 2)
    with refused("moduli stacks must be 2-D of one shape, got (3, 4) and (3, 3)"):
        bounds.bound_reports([X, Y[:, :3]], 2)


# --- fine-grained family -------------------------------------------------------

def test_fine_grained_worked_values():
    p = pair_of([1, 2], [2, 1])
    assert fine_grained_level(p, 1) == pytest.approx(25.0)
    assert fine_grained_level(p, 2) == pytest.approx(16.0)


def test_fine_grained_endpoints_and_monotonicity():
    for trial in range(20):
        A, B, psi = random_pair(41, trial, 5)
        p = modulus_pair(A, B, psi)
        seq = bounds.fine_grained_sequence(p)
        norms = float(np.dot(p.x, p.x) * np.dot(p.y, p.y))
        assert seq[0] == pytest.approx(norms, abs=1e-10)
        assert seq[-1] == pytest.approx(bounds.correlation_bound(p), abs=1e-10)
        assert all(a >= b - 1e-10 for a, b in zip(seq, seq[1:]))


def test_fine_grained_levels_match_closed_form():
    # i_L = X Y - (X_L Y_L - P_L^2): X and Y sum x_i^2 and y_i^2 over every
    # index; X_L, Y_L and P_L sum x_i^2, y_i^2 and x_i y_i over the first L.
    # By Lagrange's identity X_L Y_L - P_L^2 is what the cross terms with
    # both indices <= L give up.
    rng = np.random.default_rng(2024)
    for trial in range(390):
        n = 1 + trial % 13
        x, y = (rng.random(n) * 10.0 ** rng.integers(-2, 3) for _ in range(2))
        if trial % 3 == 0:
            x[rng.random(n) < 0.4] = 0.0
            y[rng.random(n) < 0.4] = 0.0
        X, Y = float(np.sum(x ** 2)), float(np.sum(y ** 2))
        seq = bounds.fine_grained_sequence(pair_of(x, y))
        assert len(seq) == n
        for L, got in enumerate(seq, start=1):
            XL, YL, PL = (float(np.sum(v[:L])) for v in (x ** 2, y ** 2, x * y))
            want = X * Y - (XL * YL - PL ** 2)
            assert abs(got - want) <= 1e-12 * max(1.0, X * Y), (trial, L, got, want)


# The per-level loop and the cross-bound loop, term by term in numpy scalars,
# kept verbatim as the bit-for-bit oracles of the one-pass family.
def reference_fine_grained_bound(pair, level):
    n = pair.dim
    x, y = pair.x, pair.y
    total = float(np.sum(pair.x ** 2 * pair.y ** 2))
    for i in range(n):
        for j in range(i + 1, n):
            if j + 1 > level:
                total += float(x[i] ** 2 * y[j] ** 2 + x[j] ** 2 * y[i] ** 2)
            else:
                total += float(2.0 * x[i] * y[i] * x[j] * y[j])
    return total


def reference_paired_cross_bound(pair):
    n = pair.dim
    x, y = pair.x, pair.y
    total = float(np.sum(x ** 2 * y ** 2))
    for j in range(1, n):
        for i in range(n):
            if i != j:
                total += float(x[i] ** 2 * y[j] ** 2)
    total += float(y[0] ** 2 * np.sum(x[3:] ** 2))
    total += float(2.0 * y[0] ** 2 * x[1] * x[2])
    return total


signed_zero = st.sampled_from([0.0, -0.0])  # ModulusPair accepts -0.0: -0.0 < 0 is False
spread_modulus = st.one_of(
    signed_zero,
    st.builds(lambda mantissa, exponent: mantissa * 10.0 ** exponent,
              st.floats(min_value=1.0, max_value=10.0), st.integers(min_value=-12, max_value=11)),
    st.floats(min_value=1e-12, max_value=1e12))
# Mostly indices where both moduli are +-0.0, so the support has gaps inside
# it, and some where only one of the two is.
sparse_entry = st.one_of(*[st.tuples(signed_zero, signed_zero)] * 4,
                         st.tuples(spread_modulus, spread_modulus))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(st.tuples(spread_modulus, spread_modulus), min_size=1, max_size=20),
                 st.lists(sparse_entry, min_size=1, max_size=24)))
def test_fine_grained_family_and_cross_bound_match_the_loops_bit_for_bit(entries):
    p = pair_of(*zip(*entries))
    want = tuple(reference_fine_grained_bound(p, L) for L in range(1, p.dim + 1))
    assert bounds.fine_grained_sequence(p) == want
    assert tuple(fine_grained_level(p, L) for L in range(1, p.dim + 1)) == want
    if p.dim >= 3:
        assert bounds.paired_cross_bound(p) == reference_paired_cross_bound(p)


@pytest.mark.parametrize("x, y", [
    # An inf square beside zeros: the loops' inf * 0.0 terms give NaN, on
    # top of a NaN diagonal in the first pair and of an inf one in the next
    # two, whose levels past their last such term stay inf.
    ([1e200, 0.0, 3.0, 0.0], [1.0, 1e200, 0.0, 0.0]),
    ([1e200, 0.0, 0.0, 3.0], [1.0, 0.0, 0.0, 2.0]),
    ([0.0, 1e200, 0.0, 0.0], [0.0, 1.0, 2.0, 0.0]),
    # Finite squares whose 2 x_1 y_1 overflows: a later zero index's cross
    # term is inf * 0.0 from level 2 on, while the diagonal is already inf.
    ([1e154, 0.0], [1e154, 0.0]),
    ([1e154, 0.0, 0.0], [1e154, -0.0, 0.0]),
    # The largest float whose square is finite, and the next one up.
    ([1.3407807929942596e154, 0.0, 1.0], [0.0, 1.0, 0.0]),
    ([1.3407807929942597e154, 0.0, 1.0], [0.0, 1.0, 0.0]),
])
def test_overflow_beside_zeros_keeps_the_loops_nans(x, y):
    p = pair_of(x, y)
    with np.errstate(all="ignore"):
        want = tuple(reference_fine_grained_bound(p, L) for L in range(1, p.dim + 1))
        assert repr(bounds.fine_grained_sequence(p)) == repr(want)
        if p.dim >= 3:
            assert repr(bounds.paired_cross_bound(p)) == repr(reference_paired_cross_bound(p))


def test_fine_grained_family_overflows_to_inf_like_the_loops():
    # A 1e200 modulus squares to inf in numpy's scalar pow, where a Python
    # float's ** would raise OverflowError. No zero entry, so no inf * 0.
    p = pair_of([1e200, 2.0, 3.0, 4.0], [1.0, 1e200, 2.0, 3.0])
    with np.errstate(over="ignore"):
        want = tuple(reference_fine_grained_bound(p, L) for L in range(1, 5))
        assert want == (math.inf,) * 4
        assert bounds.fine_grained_sequence(p) == want
        assert fine_grained_level(p, 2) == want[1]
        assert bounds.paired_cross_bound(p) == reference_paired_cross_bound(p) == math.inf


@pytest.mark.parametrize("x1", [1.5e154, 1e154])
def test_bound_report_on_huge_finite_moduli_reads_inf(x1):
    # At 1e154 the squares and block sums are finite, but the squares of x . y and of
    # |x_S||y_S| + |x_Sc||y_Sc| pass the largest float: inf, as numpy's pow gives, where
    # a Python float's ** raises OverflowError. At 1.5e154 the squares are inf already.
    p = pair_of([x1, 2.0, 3.0], [3.0, 2.0, 1.0])
    with np.errstate(all="ignore"):
        report = bounds.bound_report(p, 1)
        assert bounds.correlation_bound(p) == bounds.split_bound(p, (2, 3)) == math.inf
    values = [getattr(report, name) for name in
              ("variance_product", "lb", "k_m", "k_m_v", "k_tilde_m", "k_tilde", "i_1_prime")]
    assert values + list(report.i_d) == [math.inf] * 10
    assert report.k_tilde_argmax == (1,)


def test_split_and_correlation_bounds_below_overflow_keep_their_floats():
    # One step below: every square is finite, and the same ** gives the same float.
    p = pair_of([1e153, 2.0, 3.0], [3.0, 2.0, 1.0])
    x2, y2 = oracles._squares(p)
    assert bounds.split_bound(p, (1,)) == oracles._split_value(x2, y2, frozenset({0})) < math.inf
    assert bounds.correlation_bound(p) == float(np.dot(p.x, p.y)) ** 2 < math.inf


# --- paired cross bound ---------------------------------------------------------

def test_paired_cross_bound_zero_x():
    assert bounds.paired_cross_bound(pair_of([0, 0, 0], [1, 2, 3])) == pytest.approx(0.0)


def test_paired_cross_bound_all_ones():
    assert bounds.paired_cross_bound(pair_of([1, 1, 1], [1, 1, 1])) == pytest.approx(9.0)


def test_paired_cross_bound_can_fall_below_level_two():
    # i_1' = 4 - 1 * (1 - 0)^2 = 3, i_2 = 4 - (1 * 1 - 1 * 1)^2 = 4.
    p = pair_of([1, 1, 0], [1, 1, 0])
    assert bounds.paired_cross_bound(p) == pytest.approx(3.0)
    assert fine_grained_level(p, 2) == pytest.approx(4.0)


def test_paired_cross_bound_difference_identities():
    # X = Y = 15; y1^2 (x2 - x3)^2 = 4 and (x1 y2 - x2 y1)^2 = 49.
    p = pair_of([3, 1, 2, 1], [2, 3, 1, 1])
    i_1 = fine_grained_level(p, 1)
    assert i_1 == pytest.approx(225.0)
    assert i_1 - bounds.paired_cross_bound(p) == pytest.approx(4.0)
    assert i_1 - fine_grained_level(p, 2) == pytest.approx(49.0)


def test_paired_cross_bound_requires_three_indices():
    with refused("paired cross bound needs dimension >= 3, got 2"):
        bounds.paired_cross_bound(pair_of([1, 1], [1, 1]))


def test_paired_cross_bound_below_variance_product():
    for trial in range(50):
        A, B, psi = random_pair(51, trial, 4)
        p = modulus_pair(A, B, psi)
        norms = float(np.dot(p.x, p.x) * np.dot(p.y, p.y))
        assert bounds.paired_cross_bound(p) <= norms + 1e-10


# --- Gram machinery --------------------------------------------------------------

def test_gram_matrix_identity_op():
    psi = moments.PureState(amplitudes=np.array([1.0, 0.0], dtype=complex))
    G = moments.gram_matrix([np.eye(2, dtype=complex)], psi)
    assert np.allclose(G, np.ones((2, 2)))
    assert min(np.linalg.eigvalsh(G)) == pytest.approx(0.0, abs=1e-12)


def test_gram_matrix_pair_entries():
    gen = sampling.trial_generator(seed=61, trial=0)
    A = random_unitary(gen, 3)
    B = random_unitary(gen, 3)
    psi = random_state(gen, 3)
    G = moments.gram_matrix([A, B], psi)
    assert G.shape == (3, 3)
    assert G[0, 1] == pytest.approx(moments.expectation(A, psi))
    assert G[0, 2] == pytest.approx(moments.expectation(B, psi))
    assert G[1, 2] == pytest.approx(moments.expectation(A.conj().T @ B, psi))
    assert np.allclose(np.diag(G), 1.0)
    assert min(np.linalg.eigvalsh(G)) >= -1e-10


def test_gram_matrix_rejects_non_unitary():
    psi = moments.PureState(amplitudes=np.array([1.0, 0.0], dtype=complex))
    with refused("operator 0 deviates from unitarity by 3.000e+00 (tol 1.0e-08)"):
        moments.gram_matrix([np.diag([1.0, 2.0]).astype(complex)], psi)


def test_bounds_imports_only_delta_vector_and_modulus_pair():
    # Bounds read moduli and delta vectors; applying an operator to a state is moments' job.
    tree = ast.parse(Path(bounds.__file__).read_text())
    from_moments = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = {alias.name for alias in node.names}
            assert node.module is not None or "moments" not in names
            if node.module == "moments":
                from_moments |= names
    assert from_moments == {"DeltaVector", "ModulusPair"}
    assert not hasattr(bounds, "gram_matrix")
    assert moments.gram_matrix is moments.gram_matrix


# --- three-operator bound ---------------------------------------------------------

def test_triple_correlation_bound_identity_factor_vanishes():
    gen = sampling.trial_generator(seed=71, trial=0)
    A = random_unitary(gen, 4)
    B = random_unitary(gen, 4)
    psi = random_state(gen, 4)
    val = bounds.triple_correlation_bound(*deltas_of([A, B, np.eye(4, dtype=complex)], psi))
    assert val == pytest.approx(0.0, abs=1e-12)


def test_triple_correlation_bound_equal_operators_saturate():
    gen = sampling.trial_generator(seed=72, trial=0)
    A = random_unitary(gen, 4)
    psi = random_state(gen, 4)
    var = variance_pure(A, psi)
    val = bounds.triple_correlation_bound(*deltas_of([A, A, A], psi))
    assert val == pytest.approx(var ** 3, abs=1e-10)


def test_triple_bound_matches_gram_determinant():
    for trial in range(30):
        gen = sampling.trial_generator(seed=73, trial=trial)
        d = int(gen.integers(2, 6))
        ops = [random_unitary(gen, d) for _ in range(3)]
        psi = random_state(gen, d)
        G = moments.gram_matrix(ops, psi)
        det = float(np.linalg.det(G).real)
        triple = math.prod(variance_pure(U, psi) for U in ops)
        rhs = bounds.triple_correlation_bound(*deltas_of(ops, psi))
        assert det == pytest.approx(triple - rhs, abs=1e-9)
        assert rhs <= triple + 1e-10


# --- multi-operator geometric mean --------------------------------------------------

def mean_of(ops, psi, m, v) -> dict[str, float]:
    """The geometric mean as a CLI row takes it: from one bound_reports call on the operators' moduli (of two
    operators, the first pair's report factors, each raised to 1/1)."""
    (report,), _, means = bounds.bound_reports([np.abs(d.entries)[None] for d in deltas_of(ops, psi)], m, v)
    return means[0] if means else dict(zip(bounds.FLAVORS, (report.k_m, report.k_m_v, report.k_tilde_m)))


def test_geometric_mean_two_ops_reduces_to_pairwise():
    gen = sampling.trial_generator(seed=81, trial=0)
    A = random_unitary(gen, 4)
    B = random_unitary(gen, 4)
    psi = random_state(gen, 4)
    pairwise = bounds.split_bound(modulus_pair(A, B, psi), (1, 2))
    assert mean_of([A, B], psi, 2, 0.1)["plain"] == pytest.approx(pairwise)


def test_geometric_mean_identity_op_kills_bound():
    gen = sampling.trial_generator(seed=82, trial=0)
    A = random_unitary(gen, 4)
    B = random_unitary(gen, 4)
    psi = random_state(gen, 4)
    val = mean_of([A, B, np.eye(4, dtype=complex)], psi, 2, 1.0)["plain"]
    assert val == pytest.approx(0.0, abs=1e-12)


def test_geometric_mean_flavors_all_below_product():
    for trial in range(20):
        gen = sampling.trial_generator(seed=83, trial=trial)
        d = int(gen.integers(3, 6))
        ops = [random_unitary(gen, d) for _ in range(3)]
        psi = random_state(gen, d)
        product = math.prod(variance_pure(U, psi) for U in ops)
        vals = mean_of(ops, psi, max(1, d // 2), 0.1)
        for val in vals.values():
            assert val <= product + 1e-10


@pytest.mark.parametrize("n_ops", [2, 3, 4])
def test_geometric_mean_is_exactly_the_product_of_pairwise_bounds(n_ops):
    # Each flavor multiplies its pairwise quantity in combinations order and
    # takes the (l-1)-th root, bit for bit, at every block size m = 1..d-1:
    # the first pair's factors come from its report (k_tilde_m from the
    # table entry of min(m, d - m) when m > d/2), the others from the pair.
    for trial in range(12):
        gen = sampling.trial_generator(seed=84, trial=trial)
        d = 2 + trial % 4
        ops = [random_unitary(gen, d) for _ in range(n_ops)]
        psi = random_state(gen, d)
        pairs = [modulus_pair(A, B, psi) for A, B in itertools.combinations(ops, 2)]
        for m in range(1, d):
            block = range(1, m + 1)
            products = {
                "plain": math.prod(bounds.split_bound(p, block) for p in pairs),
                "convex": math.prod(split_bound_blend(p, block, 0.3) for p in pairs),
                "tilde": math.prod(bounds.best_split_bound(p, m)[0] for p in pairs),
            }
            want = {flavor: val ** (1.0 / (n_ops - 1)) for flavor, val in products.items()}
            assert mean_of(ops, psi, m, 0.3) == want, (trial, m)


def test_geometric_mean_needs_two_operators():
    A, B, psi = random_pair(84, 0, 3)
    with refused("need at least 2 operators, got 1"):
        bounds.bound_reports([np.abs(delta_vector(A, psi).entries)[None]], 1)


def test_geometric_mean_rejects_out_of_range_weight(monkeypatch):
    A, B, psi = random_pair(84, 0, 3)
    C = random_unitary(sampling.trial_generator(seed=84, trial=1), 3)
    # The first pair's report refuses the weight before any later pair is searched.
    searches = count_split_searches(monkeypatch)
    with refused("blend weight must lie in [0, 1], got 1.5"):
        mean_of([A, B, C], psi, 1, 1.5)
    assert searches == [[1]]


@pytest.mark.parametrize("row, bad, message", [
    (2, np.nan, "modulus vectors must be finite"),
    (2, np.inf, "modulus vectors must be finite"),
    (2, -0.25, "modulus vectors must be nonnegative"),
    (0, np.nan, "modulus vectors must be finite"),
])
def test_geometric_mean_refuses_a_bad_modulus_as_a_pair_would(row, bad, message):
    # A library caller's moduli are checked once, with the message
    # ModulusPair gives a pair holding that row; a CLI row passes
    # delta_stack's rows, which its finiteness test has checked.
    A, B, psi = random_pair(84, 0, 3)
    C = random_unitary(sampling.trial_generator(seed=84, trial=1), 3)
    moduli = [np.abs(d.entries)[None] for d in deltas_of([A, B, C], psi)]
    moduli[row][0, 1] = bad
    with refused(message):
        ModulusPair(moduli[row][0], moduli[1 - row % 2][0])
    with refused(message):
        bounds.bound_reports(moduli, 1, 0.1)
    with refused("moduli stacks must be 2-D of one shape, got (1, 3) and (1, 3) and (1, 2)"):
        bounds.bound_reports([*moduli[:2], moduli[2][:, :2]], 1, 0.1)


# --- aggregate report ----------------------------------------------------------------

def test_bound_report_runs_chain_on_random_instance():
    A, B, psi = random_pair(91, 0, 5)
    rep = bounds.bound_report(modulus_pair(A, B, psi), m=2, v=0.1)
    assert rep.validate() == []
    assert rep.m == 2
    assert rep.v == pytest.approx(0.1)
    assert len(rep.i_d) == 5
    assert len(rep.k_tilde_argmax) >= 1


# A consistent report: vp 10 >= k_tilde 5 >= k_tilde_m 4 >= k_m 2 >= lb 1,
# k_m <= k_m_v 3 <= vp, i_d falls from vp to lb. Each case breaks one link by 0.5.
CHAIN_BASE = dict(m=1, v=0.1, variance_product=10.0, lb=1.0, k_m=2.0, k_m_v=3.0,
                  k_tilde_m=4.0, k_tilde=5.0, k_tilde_argmax=(1,),
                  i_d=(10.0, 6.0, 1.0), i_1_prime=7.0)


CHAIN_CHANGES = [
    ({"lb": 2.5, "i_d": (10.0, 6.0, 2.5)}, "lb > k_m"),
    ({"k_m_v": 1.5}, "k_m > k_m_v"),
    ({"k_m_v": 10.5}, "k_m_v > variance_product"),
    ({"k_tilde_m": 1.5}, "k_m > k_tilde_m"),
    ({"k_tilde_m": 5.5}, "k_tilde_m > k_tilde"),
    ({"k_tilde": 10.5}, "k_tilde > variance_product"),
    ({"i_d": (10.0, 6.0, 6.5, 1.0)}, "i_3 > i_2"),
    ({"i_d": (10.5, 6.0, 1.0)}, "i_1 != variance_product"),
    ({"i_d": (10.0, 6.0, 1.5)}, "i_n != lb"),
]
CHAIN_INF_VERDICTS = [
    ({"k_tilde": math.inf, "variance_product": math.inf, "i_d": (math.inf, 6.0, 1.0)}, []),
    ({"k_tilde": math.inf}, ["k_tilde > variance_product by inf"]),
    ({"lb": -math.inf, "i_d": (10.0, 6.0, -math.inf)}, []),
]


@pytest.mark.parametrize("change, message", CHAIN_CHANGES)
def test_bound_set_validate_names_each_broken_link(change, message):
    assert bounds.BoundSet(**CHAIN_BASE).validate() == []
    assert bounds.BoundSet(**{**CHAIN_BASE, **change}).validate() == [f"{message} by 5.000e-01"]


@pytest.mark.parametrize("change, verdict", CHAIN_INF_VERDICTS)
def test_bound_set_validate_keeps_its_inf_verdicts(change, verdict):
    assert bounds.BoundSet(**{**CHAIN_BASE, **change}).validate() == verdict


def test_the_block_chain_test_is_validate_on_every_link():
    # _chains_hold, the block's array form of validate, holds exactly where validate finds nothing: each broken
    # link, the inf verdicts, the rounding forgiven within SLACK and NaN members.
    nan = math.nan
    changes = [{}, {"lb": 2.0 + 1e-11, "i_d": (10.0, 6.0, 2.0 + 1e-11)}, {"lb": nan}, {"k_m": nan},
               {"variance_product": nan}, {"i_d": (10.0, nan, 1.0)}, {"i_d": (nan, 6.0, 1.0)},
               {"lb": nan, "i_d": (10.0, 6.0, nan)}, {"k_m": math.inf, "k_m_v": math.inf}]
    changes += [change for change, _ in CHAIN_CHANGES + CHAIN_INF_VERDICTS]
    for change in changes:
        report = bounds.BoundSet(**{**CHAIN_BASE, **change})
        fields = (np.array([getattr(report, name)]) for name in (
            "lb", "k_m", "k_m_v", "variance_product", "k_tilde_m", "k_tilde"))
        assert bounds._chains_hold(*fields, np.array([report.i_d])).tolist() == [not report.validate()], change


def test_bound_set_validate_forgives_rounding_within_slack():
    nudged = {"lb": 2.0 + 1e-11, "i_d": (10.0, 6.0, 2.0 + 1e-11)}
    assert bounds.BoundSet(**{**CHAIN_BASE, **nudged}).validate() == []


def test_bound_report_rejects_degenerate_block():
    A, B, psi = random_pair(92, 0, 3)
    with refused("block size 3 out of range 1..2 (m = n is degenerate)"):
        bounds.bound_report(modulus_pair(A, B, psi), m=3, v=0.1)


PUBLIC_BOUNDS = ("split_bound", "variance_product", "correlation_bound", "fine_grained_sequence",
                 "paired_cross_bound")


def test_bound_report_reads_the_public_bounds_once_each(monkeypatch):
    # A report's fields come from the module's public functions, looked up at
    # call time, so a wrapper sees each once (the benchmark's tracer times
    # i_d and i_1' this way).
    p = modulus_pair(*random_pair(94, 0, 5))
    want = bounds.bound_report(p, 2)
    calls = []
    for name in PUBLIC_BOUNDS:
        real = getattr(bounds, name)
        monkeypatch.setattr(bounds, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    assert bounds.bound_report(p, 2) == want
    assert sorted(calls) == sorted(PUBLIC_BOUNDS)
    assert (want.variance_product, want.lb, want.i_d, want.i_1_prime) == (
        bounds.variance_product(p), bounds.correlation_bound(p), bounds.fine_grained_sequence(p),
        bounds.paired_cross_bound(p))


def test_a_row_on_the_per_row_path_builds_one_pair(monkeypatch):
    # The per-row search hands back the pair it builds, and the per-row fields read it: a 2-row ex1 n = 16
    # block (3 support indices a row, so both rows are searched per pair) and a report build one pair a row.
    # A tabled row of a block below BLOCK_MIN has no pair from the search and builds one for its fields.
    built, real = [], ModulusPair.unchecked
    monkeypatch.setattr(ModulusPair, "unchecked", lambda *args: built.append(1) or real(*args))
    X, Y = ex1_rows(16, [0.7, 1.3])
    bounds.bound_reports([X, Y], 3)
    assert len(built) == 2
    built.clear()
    bounds.bound_report(ModulusPair(X[0], Y[0]), 3)
    assert len(built) == 1
    built.clear()
    X, Y = np.random.default_rng(49).random((2, bounds.BLOCK_MIN - 1, 6))  # 7 x 2^6 masks: every row tabled
    searches = count_split_searches(monkeypatch)
    bounds.bound_reports([X, Y], 3)
    assert (len(built), searches) == (bounds.BLOCK_MIN - 1, [])


def test_a_pair_squares_its_moduli_once(squarings):
    # Every bound reads the pair's kept squares: numpy's once for the sums and
    # the searches, C pow's once for the transcribed sums. A report is a block
    # of one row: its row's pair keeps the pair's numpy squares and forms its
    # own C-pow squares once, for i_d and i_1'.
    p = modulus_pair(*random_pair(94, 1, 6))
    bounds.split_bound(p, (1, 3))
    bounds.variance_product(p)
    bounds.best_split_bound(p, 2)
    bounds.best_split_bounds(p)
    bounds.bound_report(p, 3)
    bounds.fine_grained_sequence(p)
    bounds.paired_cross_bound(p)
    assert [len(pairs) for pairs in squarings.values()] == [1, 2]
    row, again = squarings["pow_terms"]
    assert squarings["squares"][0] is again is p and row is not p
    assert all(np.shares_memory(q, q_p) for q, q_p in zip(row.squares, p.squares))


def test_bound_report_skips_cross_term_for_qubits():
    A, B, psi = random_pair(93, 0, 2)
    rep = bounds.bound_report(modulus_pair(A, B, psi), m=1, v=0.1)
    assert rep.i_1_prime is None
    assert rep.validate() == []


def test_equality_condition_saturates_split():
    # |x_block||y_rest| = |x_rest||y_block| is the equality case for the
    # upper end of the split chain; block proportionality is not required.
    x = np.array([3.0, 4.0, 2.0])
    y = np.array([4.0, 3.0, 2.0])
    p = pair_of(x, y)
    val = bounds.split_bound(p, (1, 2))
    norms = float(np.dot(x, x) * np.dot(y, y))
    assert val == pytest.approx(norms, abs=1e-10)


# --- hypothesis properties -------------------------------------------------------------

finite_floats = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(finite_floats, finite_floats), min_size=2, max_size=6),
       st.integers(min_value=1, max_value=5),
       st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_split_chain_property(entries, m, v):
    x = np.array([e[0] for e in entries])
    y = np.array([e[1] for e in entries])
    n = len(entries)
    m = min(m, n)
    p = pair_of(x, y)
    s = range(1, m + 1)
    corr = bounds.correlation_bound(p)
    k = bounds.split_bound(p, s)
    kv = split_bound_blend(p, s, v)
    norms = float(np.dot(x, x) * np.dot(y, y))
    assert corr <= k + 1e-9
    assert k <= kv + 1e-9
    assert kv <= norms + 1e-9


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(finite_floats, finite_floats), min_size=2, max_size=6))
def test_fine_grained_chain_property(entries):
    x = np.array([e[0] for e in entries])
    y = np.array([e[1] for e in entries])
    seq = bounds.fine_grained_sequence(pair_of(x, y))
    assert all(a >= b - 1e-9 for a, b in zip(seq, seq[1:]))


# --- ndarray-method reductions against the np.* calls they replaced --------------------

def seeded_vector(rng, n: int, dtype=float) -> np.ndarray:
    """Gaussian coordinates (moduli for float, both parts for complex) with about a third of
    the parts a zero of random sign, 0.0 or -0.0."""
    parts = rng.standard_normal((n, 2 if dtype is complex else 1))
    zero = rng.uniform(size=parts.shape) < 1 / 3
    parts = np.where(zero, np.copysign(0.0, parts), parts if dtype is complex else np.abs(parts))
    return parts.view(dtype).ravel()


def seeded_cases(per_n: int = 20):
    for n in range(2, 21):
        for trial in range(per_n):
            yield n, sampling.trial_generator(seed=2027, trial=trial, stream=n)


def test_pair_reductions_equal_the_np_functions():
    signed_zeros = 0
    for n, rng in seeded_cases():
        x, y = seeded_vector(rng, n), seeded_vector(rng, n)
        signed_zeros += np.count_nonzero(np.signbit(x) & (x == 0.0))
        pair = ModulusPair(x, y)
        assert bounds.variance_product(pair) == float(np.sum(pair.x ** 2) * np.sum(pair.y ** 2))
        assert bounds.correlation_bound(pair) == float(np.dot(pair.x, pair.y)) ** 2
    assert signed_zeros > 0


def test_delta_reductions_equal_the_np_functions():
    signed_zeros = 0
    for n, rng in seeded_cases():
        dA, dB, dC = (moments.DeltaVector(seeded_vector(rng, n, complex), 0j) for _ in range(3))
        signed_zeros += np.count_nonzero(np.signbit(dA.entries.imag) & (dA.entries.imag == 0.0))
        assert dA.variance == float(np.real(np.vdot(dA.entries, dA.entries)))
        vA, vB, vC = dA.variance, dB.variance, dC.variance
        cAB, cAC, cBC = dA.correlation(dB), dA.correlation(dC), dB.correlation(dC)
        want = float(vA * abs(cBC) ** 2 + vB * abs(cAC) ** 2 + vC * abs(cAB) ** 2
                     - 2.0 * np.real(cAC * np.conj(cBC) * np.conj(cAB)))
        assert bounds.triple_correlation_bound(dA, dB, dC) == want
    assert signed_zeros > 0


def test_variance_mixed_equals_the_np_trace_form():
    for n, rng in seeded_cases(per_n=3):
        U, rho = random_unitary(rng, n), sampling.random_density(rng, n)
        assert moments.variance_mixed(U, rho) == float(1.0 - abs(np.trace(U @ rho.matrix)) ** 2)
