"""Acceptance suite: one test per release criterion, at the stated tolerances.

Criterion 2 checks the paired cross bound i_1' against the fine-grained family
through the closed forms i_1 - i_1' = y1^2 (x2 - x3)^2 and
i_1 - i_2 = (x1 y2 - x2 y1)^2. Their difference has no fixed sign, so the
sandwich i_2 <= i_1' <= i_1 is asserted only on the clock/shift family.
Criterion 6 checks the purification vec(sqrt(rho)): tracing out the first
factor gives rho, tracing out the second gives its transpose. See the README
for the status table.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from uur import bounds, cli, linalg, moments, sampling, scenarios

from oracles import (
    delta_vector, example1_reference, modulus_pair, random_state, random_unitary,
    purified, split_bound_blend, state_at, variance_pure)

SLACK = 1e-10


def _instance(seed: int, trial: int, dmin=2, dmax=8):
    gen = sampling.trial_generator(seed=seed, trial=trial)
    d = dmin + trial % (dmax - dmin + 1)
    A = random_unitary(gen, d)
    B = random_unitary(gen, d)
    psi = random_state(gen, d)
    return A, B, psi, d


def test_criterion_01_pairwise_bound_chains():
    violations = []
    for trial in range(1000):
        A, B, psi, d = _instance(101, trial)
        pair = modulus_pair(A, B, psi)
        vp = bounds.variance_product(pair)
        lb = bounds.correlation_bound(pair)
        k_tilde = max(val for val, _ in bounds.best_split_bounds(pair))
        for m in range(1, d + 1):
            k = bounds.split_bound(pair, range(1, m + 1))
            if not lb <= k + SLACK:
                violations.append((trial, m, "lb > k_m"))
            for v in (0.0, 0.1, 0.5, 1.0):
                kv = split_bound_blend(pair, range(1, m + 1), v)
                if not (k <= kv + SLACK and kv <= vp + SLACK):
                    violations.append((trial, m, f"blend chain broke at v={v}"))
            if m < d:
                km_tilde, _ = bounds.best_split_bound(pair, m)
                if not (k <= km_tilde + SLACK and km_tilde <= k_tilde + SLACK
                        and k_tilde <= vp + SLACK):
                    violations.append((trial, m, "subset chain broke"))
    assert violations == [], f"{len(violations)} chain violations, first: {violations[:5]}"


def test_criterion_02_interpolation_endpoints_and_cross_bound():
    endpoint_bad = []
    cross_bad = []
    for trial in range(1000):
        A, B, psi, d = _instance(102, trial)
        pair = modulus_pair(A, B, psi)
        vp = bounds.variance_product(pair)
        lb = bounds.correlation_bound(pair)
        seq = bounds.fine_grained_sequence(pair)
        if abs(seq[0] - vp) > SLACK or abs(seq[-1] - lb) > SLACK:
            endpoint_bad.append((trial, "endpoints"))
        if any(a < b - SLACK for a, b in zip(seq, seq[1:])):
            endpoint_bad.append((trial, "not non-increasing"))
        if d >= 3:
            x, y = pair.x, pair.y
            cross = bounds.paired_cross_bound(pair)
            if cross > seq[0] + SLACK:
                cross_bad.append((trial, d, "cross bound above i_1", cross - seq[0]))
            # i_1 - i_1' and i_1 - i_2 in closed form. Their difference
            # (x1 y2 - x2 y1)^2 - y1^2 (x2 - x3)^2 has no fixed sign, so
            # i_1' and i_2 are not ordered on general states.
            gap = float(abs(seq[0] - cross - y[0] ** 2 * (x[1] - x[2]) ** 2))
            if gap > SLACK:
                cross_bad.append((trial, d, "i_1 - i_1' != y1^2 (x2 - x3)^2", gap))
            gap = float(abs(seq[0] - seq[1] - (x[0] * y[1] - x[1] * y[0]) ** 2))
            if gap > SLACK:
                cross_bad.append((trial, d, "i_1 - i_2 != (x1 y2 - x2 y1)^2", gap))
    assert endpoint_bad == [], f"endpoint failures: {endpoint_bad[:5]}"
    assert cross_bad == [], f"{len(cross_bad)} cross-bound failures: {cross_bad[:5]}"
    # On the clock/shift family the full sandwich i_2 <= i_1' <= i_1 holds.
    # Only d = 3 tests it: from d = 4 on x2 = x3 = 0, so i_1' = i_1.
    for d in range(3, 9):
        scen = scenarios.scenario("ex1", d)
        A, B = (M for _, M in scen.operators)
        for theta in scenarios.theta_grid(0.0, math.pi, 200):
            pair = modulus_pair(A, B, state_at(scen, theta))
            seq = bounds.fine_grained_sequence(pair)
            cross = bounds.paired_cross_bound(pair)
            assert seq[1] - SLACK <= cross <= seq[0] + SLACK, \
                f"ex1 d={d} theta={theta}: i_2={seq[1]!r} i_1'={cross!r} i_1={seq[0]!r}"


def test_criterion_03_clock_shift_closed_forms():
    deviations = []
    for d in (2, 3, 6):
        scen = scenarios.scenario("ex1", d)
        A, B = (M for _, M in scen.operators)
        for theta in scenarios.theta_grid(0.0, math.pi, 50):
            ref = example1_reference(d, theta)
            pair = modulus_pair(A, B, state_at(scen, theta))
            seq = bounds.fine_grained_sequence(pair)
            got = {
                "x": pair.x, "y": pair.y,
                "i_1": seq[0], "i_2": seq[1], "i_d": seq[-1],
            }
            want = {
                "x": np.asarray(ref.x), "y": np.asarray(ref.y),
                "i_1": ref.i_1, "i_2": ref.i_2, "i_d": ref.i_d,
            }
            for key in got:
                err = float(np.max(np.abs(np.asarray(got[key]) - np.asarray(want[key]))))
                if err > 1e-9:
                    deviations.append((d, round(theta, 6), key, err))
        if d == 2:
            for theta in scenarios.theta_grid(0.0, math.pi, 25):
                pair = modulus_pair(A, B, state_at(scen, theta))
                rep = bounds.bound_report(pair, m=1, v=0.1)
                vals = [rep.variance_product, rep.lb, rep.k_m, rep.k_m_v,
                        rep.k_tilde_m, rep.k_tilde, *rep.i_d]
                assert max(vals) - min(vals) < SLACK, \
                    f"d=2 bounds split apart at theta={theta}"
    # The printed closed forms assign the second and last coordinate to the
    # same slot when d = 2, so deviations there are expected and itemized;
    # d = 3 and d = 6 must match exactly.
    for d, theta, key, err in deviations:
        print(f"closed-form deviation: d={d} theta={theta} field={key} |diff|={err:.3e}")
    hard = [dev for dev in deviations if dev[0] != 2]
    assert hard == [], f"closed forms deviate beyond d=2: {hard[:5]}"
    two_fields = {dev[2] for dev in deviations if dev[0] == 2}
    # x has a distinct slot per entry even at d=2; y and the scalar forms
    # share the collided slot, so only they may drift there.
    assert two_fields <= {"y", "i_1", "i_2", "i_d"}, \
        f"unexpected d=2 deviation fields: {two_fields}"


def test_criterion_04_block_choice_saturation():
    # Moving index 3 out of the leading block in favor of the last index
    # saturates the subset bound on the clock/shift family at block size 3.
    for d in range(3, 9):
        scen = scenarios.scenario("ex1", d)
        A, B = (M for _, M in scen.operators)
        indices = (1, 2, d) if d > 3 else (1, 2, 3)
        for theta in scenarios.theta_grid(0.1, math.pi - 0.1, 25):
            pair = modulus_pair(A, B, state_at(scen, theta))
            vp = bounds.variance_product(pair)
            assert bounds.split_bound(pair, indices) == pytest.approx(vp, abs=SLACK), \
                f"d={d} theta={theta}: subset {indices} fails to saturate"
    # Qubit purification example: the pair swap {2, 4} at block size 2.
    scen = scenarios.scenario("ex4")
    A, B = (M for _, M in scen.operators)
    for theta in scenarios.theta_grid(0.0, 2 * math.pi, 50):
        pair = modulus_pair(A, B, state_at(scen, theta))
        vp = bounds.variance_product(pair)
        assert bounds.split_bound(pair, (2, 4)) == pytest.approx(vp, abs=SLACK), \
            f"theta={theta}: subset (2, 4) fails to saturate"
        best, _ = bounds.best_split_bound(pair, 2)
        assert best == pytest.approx(vp, abs=SLACK)


def test_criterion_05_qubit_purification_ordering():
    scen = scenarios.scenario("ex4")
    A, B = (M for _, M in scen.operators)
    for theta in scenarios.theta_grid(0.0, 2 * math.pi, 200):
        pair = modulus_pair(A, B, state_at(scen, theta))
        vp = bounds.variance_product(pair)
        k2v = split_bound_blend(pair, (1, 2), 0.1)
        seq = bounds.fine_grained_sequence(pair)
        lb = bounds.correlation_bound(pair)
        chain = [vp, k2v, seq[1], seq[2], seq[3], lb]
        for a, b in zip(chain, chain[1:]):
            assert a >= b - SLACK, f"ordering broke at theta={theta}: {chain}"


def test_criterion_06_purification_identities():
    for trial in range(200):
        gen = sampling.trial_generator(seed=106, trial=trial)
        r = gen.uniform(-1.0, 1.0, size=3)
        norm = np.linalg.norm(r)
        if norm >= 1.0:
            r *= 0.98 / norm
        rho = moments.bloch_density(r)
        psi = purified(rho)
        proj = np.outer(psi.amplitudes, psi.amplitudes.conj())
        for _ in range(20):
            U = random_unitary(gen, 2)
            got = moments.expectation(moments.lift(U), psi)
            want = complex(np.trace(U @ rho.matrix))
            assert abs(got - want) <= 1e-10, \
                f"trial {trial}: lifted expectation off by {abs(got - want):.3e}"
        # keep="second" traces out the first factor, keep="first" the second.
        # For vec(sqrt(rho)) they give rho and its transpose (see purify).
        second = linalg.partial_trace(proj, keep="second")
        first = linalg.partial_trace(proj, keep="first")
        dev = float(np.max(np.abs(second - rho.matrix)))
        assert dev <= 1e-9, \
            f"trial {trial}: tracing out the first factor misses rho by {dev:.3e}"
        dev = float(np.max(np.abs(first - rho.matrix.T)))
        assert dev <= 1e-9, \
            f"trial {trial}: tracing out the second factor misses rho^T by {dev:.3e}"


def test_criterion_07_mixed_state_floor():
    for trial in range(500):
        gen = sampling.trial_generator(seed=107, trial=trial)
        d = 2 + trial % 3
        rho = sampling.random_density(gen, d)
        A = random_unitary(gen, d)
        B = random_unitary(gen, d)
        va = moments.variance_mixed(A, rho)
        vb = moments.variance_mixed(B, rho)
        dec = rho.eig
        prods, sums = [], []
        for k in range(d):
            vec = dec.eigenvectors[:, k]
            if dec.eigenvalues[k] < 1e-12:
                continue
            pure = moments.PureState(amplitudes=vec / np.linalg.norm(vec))
            pa = variance_pure(A, pure)
            pb = variance_pure(B, pure)
            prods.append(pa * pb)
            sums.append(pa + pb)
        assert va * vb >= min(prods) - 1e-9, f"trial {trial}: product floor broke"
        assert va + vb >= min(sums) - 1e-9, f"trial {trial}: sum floor broke"


def test_criterion_08_gram_psd_and_triple():
    for trial in range(500):
        gen = sampling.trial_generator(seed=108, trial=trial)
        d = 2 + trial % 5
        n_ops = 2 + trial % 3
        ops = [random_unitary(gen, d) for _ in range(n_ops)]
        psi = random_state(gen, d)
        G = moments.gram_matrix(ops, psi)
        assert float(np.min(np.linalg.eigvalsh(G))) >= -SLACK, \
            f"trial {trial}: Gram matrix not PSD"
        if n_ops == 3:
            product = math.prod(variance_pure(U, psi) for U in ops)
            rhs = bounds.triple_correlation_bound(*(delta_vector(U, psi) for U in ops))
            assert rhs <= product + SLACK, \
                f"trial {trial}: triple bound exceeds the variance product"


def test_criterion_09_geometric_mean_products():
    for n_ops in (3, 4):
        for trial in range(300):
            gen = sampling.trial_generator(seed=109 + n_ops, trial=trial)
            d = 2 + trial % 5
            ops = [random_unitary(gen, d) for _ in range(n_ops)]
            psi = random_state(gen, d)
            m = 1 + trial % max(1, d // 2)
            deltas = [delta_vector(U, psi) for U in ops]
            product = math.prod(variance_pure(U, psi) for U in ops)
            vals = bounds.bound_reports([np.abs(d.entries)[None] for d in deltas], m, 0.1)[2][0]
            for flavor in ("plain", "convex", "tilde"):
                assert vals[flavor] <= product + SLACK, \
                    f"l={n_ops} trial {trial} {flavor}: bound exceeds product"
            assert vals["tilde"] >= vals["plain"] - 1e-12, \
                f"l={n_ops} trial {trial}: subset-optimized below first-block"


def test_criterion_10_permutation_oracle():
    for trial in range(100):
        gen = sampling.trial_generator(seed=110, trial=trial)
        n = 2 + trial % 5
        A = random_unitary(gen, n)
        B = random_unitary(gen, n)
        psi = random_state(gen, n)
        pair = modulus_pair(A, B, psi)
        x2 = pair.x.astype(float) ** 2
        y2 = pair.y.astype(float) ** 2
        for m in range(1, n):
            by_subset = {}
            for comb in itertools.combinations(range(n), m):
                by_subset[frozenset(comb)] = bounds.split_bound(pair, [i + 1 for i in comb])
            perm_max = max(by_subset[frozenset(perm[:m])]
                           for perm in itertools.permutations(range(n)))
            enum_val, _ = bounds.best_split_bound(pair, m)
            assert perm_max == enum_val, \
                f"trial {trial} n={n} m={m}: permutation oracle disagrees " \
                f"({perm_max!r} vs {enum_val!r})"
        del x2, y2


def test_criterion_11_cli_determinism(tmp_path):
    pairs = [
        (["sweep", "--example", "ex1", "--dim", "4", "--steps", "40"], "sweep"),
        (["sweep", "--example", "ex6", "--steps", "25", "--format", "json"], "sweep6"),
        (["check", "--seed", "42", "--trials", "25"], "check"),
    ]
    for args, tag in pairs:
        a = tmp_path / f"{tag}_a.out"
        b = tmp_path / f"{tag}_b.out"
        assert cli.main([*args, "--output", str(a)]) == 0
        assert cli.main([*args, "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), f"{tag}: outputs differ between runs"
