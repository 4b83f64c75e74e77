from __future__ import annotations

import collections
import hashlib
import json

import numpy as np
import pytest

from uur import bounds, errors, linalg, moments, sampling, selfcheck

from conftest import assert_same_bits
from oracles import delta_vector, modulus_pair, per_matrix_instance, run_suite, sampled_items


def _corrupt_split_bound(monkeypatch):
    # Adding 2e-6 to every split bound breaks the pair chain's k_m links.
    real = bounds.split_bound
    monkeypatch.setattr(bounds, "split_bound",
                        lambda pair, subset: real(pair, subset) + 2e-6)


def test_suite_result_records_the_first_counterexample(monkeypatch):
    # A suite whose body checks nothing reports worst 0.0, not -inf.
    monkeypatch.setattr(selfcheck, "_SPECS", [])  # the decorator registers the suite for run_all
    selfcheck._suite(0, lambda rng, trial: (np.empty((0, 2, 2)), None))(lambda rec, items: None)
    assert run_suite("<lambda>", 42, 3) == selfcheck.SuiteResult("<lambda>", 3, failures=0, worst=0.0)
    assert [spec.name for spec in selfcheck._SPECS] == ["<lambda>"]
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


def test_triple_bound_takes_one_stacked_call_per_dimension_and_checks_in_trial_order(monkeypatch):
    # Trial t has dimension 2 + t % 5. Breaking trial 5 (the d = 2 group's second row) and trial 1 (the d = 3
    # group's first): checks in trial order name trial 1; checks in group order would name trial 5.
    real, calls = bounds.triple_correlation_bounds, []

    def broken(*E):
        vt, bong3 = real(*E)
        calls.append(E[0].shape)
        bong3[{2: [1], 3: [0]}.get(E[0].shape[1], [])] += 1.0
        return vt, bong3
    monkeypatch.setattr(bounds, "triple_correlation_bounds", broken)
    result = run_suite("triple_bound", 42, 15)
    assert sorted(calls) == [(3, d) for d in range(2, 7)]
    assert (result.failures, result.counterexample["trial"]) == (4, 1)  # twice each: the bound and the identity


def test_counterexample_encoding_is_unchanged(monkeypatch):
    # Digest recorded when every trial still encoded its instance up front;
    # encoding only the captured counterexample must give the same JSON.
    _corrupt_split_bound(monkeypatch)
    ce = selfcheck.run_all(seed=3, trials=10)[0].counterexample
    digest = hashlib.sha256(json.dumps(ce, sort_keys=True).encode()).hexdigest()
    assert digest == "5b2e4dff246ad39be3affb55d81af42238994f2f3a315a6249c82ca0faca6aa4"


def test_subset_chain_reads_large_block_sizes_from_the_table(monkeypatch):
    # d = 2..8 over 7 trials: best_split_bounds searches floor(d/2) sizes
    # each in one pass, 16 sizes in 7 passes; sizes above d/2 tie with d - m
    # and are not searched.
    calls = []
    real = bounds._split_search
    monkeypatch.setattr(bounds, "_split_search",
                        lambda pair, sizes, cap: calls.append(list(sizes)) or real(pair, sizes, cap))
    result = run_suite("subset_chain", 42, 7)
    assert result.failures == 0 and result.trials == 7
    assert len(calls) == 7
    assert sum(len(sizes) for sizes in calls) == 16
    assert all(sizes == list(range(1, len(sizes) + 1)) for sizes in calls)


def test_split_symmetry_searches_each_block_size_once(monkeypatch):
    # 15 trials with d = 4..6 hold 45 block sizes m = 1..d-1; the suite
    # compares m with d - m from one search per size (it made 90 searches).
    calls = []
    real = bounds.best_split_bound
    monkeypatch.setattr(bounds, "best_split_bound",
                        lambda pair, m, cap=bounds.DEFAULT_CAP: calls.append(m) or real(pair, m, cap))
    result = run_suite("split_symmetry", 42, 15)
    assert result.failures == 0 and result.trials == 15
    assert len(calls) == 45


def test_each_sampled_unitary_is_checked_at_most_once(monkeypatch):
    # The suites' Gaussian matrices of a block become unitaries with one QR
    # per dimension across all suites, checked with one unitarity test on the
    # stack: every sampled matrix is drawn once and tested exactly once. Before
    # the stacks, this run made 711 random_unitary calls and 686 tests: 636 of
    # the draws (purification never tested its 75) and the ex1 operators of
    # cross_bound_chain on every trial (50); with a stack per suite and
    # dimension it made 63 stacks and 75 tests.
    checks, stacks = [], []
    real_deviation, real_haar = linalg.unitary_deviation, sampling.haar_unitaries
    monkeypatch.setattr(linalg, "unitary_deviation",
                        lambda A: checks.append(A.reshape(-1, *A.shape[-2:])) or real_deviation(A))
    monkeypatch.setattr(sampling, "haar_unitaries",
                        lambda Z: stacks.append(real_haar(Z)) or stacks[-1])
    selfcheck.run_all(seed=42, trials=25)
    drawn = [M.tobytes() for stack in stacks for M in stack]
    tested = collections.Counter(M.tobytes() for A in checks for M in A)
    assert len(drawn) == len(set(drawn)) == 711
    assert all(tested[M] == 1 for M in drawn)
    # 7 stacks, one per dimension 2..8; the 12 other tests are the ex1
    # operators of cross_bound_chain, built once for each of its six dimensions.
    assert (len(stacks), len(checks), sum(len(A) for A in checks)) == (7, 19, 723)


def test_a_bad_matrix_in_a_stack_stops_check_with_its_message(monkeypatch):
    # One corrupted matrix in the first stack (d = 2, pair_chain's matrices
    # first; it is pair_chain's trial 0's second unitary) is refused with the
    # message Unitary(M) gives for that matrix alone.
    real_haar = sampling.haar_unitaries

    def corrupt_first(Z):
        U = real_haar(Z)
        if not seen:
            U[1][0, 1] += 1e-3
            seen.append(U[1].copy())
        return U

    seen = []
    monkeypatch.setattr(sampling, "haar_unitaries", corrupt_first)
    with pytest.raises(errors.UurError) as exc:
        selfcheck.run_all(seed=42, trials=25)
    with pytest.raises(errors.UurError) as alone:
        moments.Unitary(seen[0])
    assert str(exc.value) == str(alone.value)
    # Unitary(M) gave this message for that matrix before stacks were checked.
    assert str(exc.value) == "operator deviates from unitarity by 5.308e-04 (tol 1.0e-08)"


@pytest.mark.parametrize("counts, dmin, dmax", [((1,), 2, 8), ((2,), 2, 8), ((3,), 2, 6),
                                                ((4,), 2, 6), ((2, 3, 4), 2, 6), ((3, 4), 3, 8)])
def test_stacked_instances_match_per_matrix_draws(counts, dmin, dmax):
    # Every trial's unitaries and state equal the per-matrix draws bit for
    # bit, though each dimension's matrices across trials share one QR and its
    # states one norm test. A trial takes its matrices and its raw state from
    # one standard_normal call, which draws the numbers of the two
    # complex_gaussians calls it replaced. Its delta vectors, from the stacked
    # pass, equal the per-item delta_vector's, its moduli rows their np.abs,
    # and its pair modulus_pair's.
    matched = 0
    for seed in (0, 1, 5, 42, 2 ** 31 - 1):
        for stream in (0, 9):
            for trial, (d, ops, psi, deltas, moduli, pair, instance) in enumerate(selfcheck._instances(
                    sampled_items(seed, 40, stream, selfcheck._Draws(counts, dmin, dmax)))):
                k = counts[trial % len(counts)]
                want, want_psi = per_matrix_instance(seed, trial, stream, k, d)
                assert (instance["trial"], instance["dimension"]) == (trial, d)
                assert d == dmin + trial % (dmax - dmin + 1)
                assert len(ops) == len(want) == len(deltas) == len(moduli) == k
                for U, V, raw in zip(ops, want, instance["operators"]):
                    assert np.array_equal(U.matrix, V) and raw is U.matrix
                assert np.array_equal(psi.amplitudes, want_psi.amplitudes)
                assert psi.amplitudes.flags.c_contiguous
                G, v = sampling.gaussian_trial(sampling.trial_generator(seed, trial, stream), k, d)
                two = sampling.trial_generator(seed, trial, stream)
                assert_same_bits(G, sampling.complex_gaussians(two, k, d, d))
                assert_same_bits(v, sampling.complex_gaussians(two, 1, d)[0])
                for U, dv, row in zip(ops, deltas, moduli):
                    alone = delta_vector(U, psi)
                    assert_same_bits(dv.entries, alone.entries)
                    assert_same_bits(row, np.abs(alone.entries))
                    assert_same_bits(dv.mean, alone.mean)
                    assert type(dv.mean) is complex
                if k == 1:
                    assert pair is None
                else:
                    alone = modulus_pair(*ops[:2], psi)
                    assert_same_bits(pair.x, alone.x)
                    assert_same_bits(pair.y, alone.y)
                matched += len(ops) + 1
    assert matched == 10 * 40 + 10 * sum(counts[t % len(counts)] for t in range(40))


def test_stacked_instances_cross_the_block_boundary(monkeypatch):
    # Draws are held 64 trials at a time, so 66 trials make two blocks;
    # each block runs one QR per dimension, and every draw is unchanged.
    stacks = []
    real_haar = sampling.haar_unitaries
    monkeypatch.setattr(sampling, "haar_unitaries", lambda Z: stacks.append(len(Z)) or real_haar(Z))
    trials = list(selfcheck._instances(sampled_items(3, 66, 1, selfcheck._Draws((1,)))))
    assert [t["trial"] for *_, t in trials] == list(range(66))
    assert stacks == [10] + [9] * 6 + [1] * 2
    for trial, (d, (U,), psi, *_) in enumerate(trials):
        (want,), want_psi = per_matrix_instance(3, trial, 1, 1, d)
        assert np.array_equal(U.matrix, want) and np.array_equal(psi.amplitudes, want_psi.amplitudes)


def test_check_forms_its_delta_vectors_in_one_pass_per_dimension(monkeypatch):
    # run_all(42, 15) drew every state with complex_gaussians and formed every
    # delta vector one at a time: 472 per-item delta vectors and 345
    # complex_gaussians calls, 225 per-item PureState and 216 ModulusPair
    # checks. The ten _Draws suites now take each trial in one draw and form
    # each dimension's delta vectors in one delta_stack call (7 dimensions, one
    # 15-trial block). coordinate_identities reads its variance and
    # correlation from those rows; cross_bound_chain builds each dimension's ex1
    # states with one state call (one norm test, no PureState), forms their rows
    # with one delta_stack per operator (6 dimensions, 12 calls) and pairs them
    # unchecked; the mixed-state floor stacks each density's eigenvectors, one
    # delta_stack per operator (30 calls). What is left per item: the
    # eigenvectors' and purified states' PureState checks, the draws of
    # purification and the floor, and equality_case's own pairs (2 a trial).
    calls = collections.Counter()

    def count(owner, name, key):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: calls.update([key]) or real(*args))

    count(moments, "delta_stack", "delta_stack")
    count(sampling, "complex_gaussians", "complex_gaussians")
    count(moments.PureState, "__post_init__", "PureState")
    count(moments.ModulusPair, "__post_init__", "ModulusPair")
    results = selfcheck.run_all(42, 15)
    assert all(r.failures == 0 for r in results)
    assert calls == {"delta_stack": 7 + 12 + 30, "complex_gaussians": 45, "PureState": 60, "ModulusPair": 30}


def _refusal(monkeypatch, owner, name, corrupt):
    """The UurError run_all(42, 15) stops with when corrupt(args) changes the arguments of owner.name."""
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: real(*corrupt(*args)))
    with pytest.raises(errors.UurError) as exc:
        selfcheck.run_all(42, 15)
    return str(exc.value)


@pytest.mark.parametrize("scale, message", [
    (1.5, "state norm 1.5000000000000002 deviates from 1 by more than 1e-10"),
    (np.nan, "state amplitudes must be finite")], ids=["off-unit-norm", "nan"])
def test_a_bad_state_in_a_stack_stops_check_with_its_message(monkeypatch, scale, message):
    # One state of the first dimension's stack is scaled before its norm
    # test: it is refused with the message PureState gives that state alone.
    rows = []

    def corrupt(P):
        P = P.copy()
        P[5] *= scale
        rows.append(P[5].copy())
        return (P,)

    got = _refusal(monkeypatch, moments.PureState, "stack", corrupt)
    with pytest.raises(errors.UurError) as alone:
        moments.PureState(rows[0])
    assert got == str(alone.value) == message


def test_a_non_finite_modulus_in_a_stack_stops_check_with_its_message(monkeypatch):
    # A NaN entry in one matrix past its unitarity test makes that row's
    # moduli NaN: refused with the message ModulusPair gives such a pair.
    def corrupt(Ms, P):
        Ms = Ms.copy()
        Ms[3][0, 1] = np.nan
        return Ms, P

    got = _refusal(monkeypatch, moments, "delta_stack", corrupt)
    x = np.abs(np.array([np.nan, 0.5]))
    with pytest.raises(errors.UurError) as alone:
        moments.ModulusPair(x, np.ones(2))
    assert got == str(alone.value) == "modulus vectors must be finite"


@pytest.mark.parametrize("corrupt", [False, True], ids=["plain", "corrupted-split-bound"])
def test_every_suite_of_run_all_reports_what_it_reports_alone(monkeypatch, corrupt):
    # run_all draws every suite's block before any suite checks it; 130 trials
    # make three 64-trial blocks, and no suite is capped below 130.
    if corrupt:
        _corrupt_split_bound(monkeypatch)
    together = selfcheck.run_all(11, 130)
    alone = [run_suite(r.name, 11, 130) for r in together]
    assert [repr(r) for r in together] == [repr(r) for r in alone]
    assert any(r.failures for r in together) == corrupt
