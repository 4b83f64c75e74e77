"""Seeded randomized invariant suites backing the `check` CLI command.

Each suite runs trials 0..trials-1; the `_suite` decorator names it after
the function. Every trial draws from its own counter-based generator, so
a rerun with the same seed reproduces every draw bit for bit. Draws are
per trial (most suites draw through `_instances`: the unitaries' Gaussian
matrices, then the state); the QR that makes them unitary and the unitarity
test run on a stack, once per suite, dimension and 1,024 trials (`_sampled`).
A suite reports its trial count, failure count, the worst margin it
observed, and the first counterexample (fully serialized) on a failure.

Two tempting claims are false and are NOT suites here: the paired cross
bound is not >= level 2 of the fine-grained family on general states (it
is on the ex1 family, which is what cross_bound_chain covers), and the
purified projector's two partial traces are rho and transpose(rho), not
rho twice. The suites check what holds instead, and so do the acceptance
tests.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import bounds, linalg, moments, sampling, scenarios
from .bounds import SLACK, SubsetSelection


def _encode(value):
    """JSON form of an instance field: complex arrays become [re, im] pairs."""
    if isinstance(value, list) or isinstance(value, np.ndarray) and value.ndim == 2:
        return [_encode(item) for item in value]
    if isinstance(value, np.ndarray):
        return [[float(z.real), float(z.imag)] for z in value.astype(complex)]
    return value


@dataclass
class SuiteResult:
    """A suite's worst margin, failure count and first counterexample.

    Instances hold raw arrays; only the captured one is encoded for JSON.
    """

    name: str
    trials: int
    failures: int = 0
    worst: float = -math.inf
    counterexample: dict | None = None

    def check(self, margin: float, tol: float, instance: dict, label: str):
        self.worst = max(self.worst, margin)
        if margin > tol:
            self.failures += 1
            if self.counterexample is None:
                self.counterexample = dict({k: _encode(v) for k, v in instance.items()},
                                           suite=self.name, violation=label, amount=margin)


def _suite(body):
    """Turn body(rec, seed, trials), which runs every trial, into suite(seed, trials)."""
    name = body.__name__.removeprefix("suite_")

    @functools.wraps(body)
    def run(seed: int, trials: int) -> SuiteResult:
        rec = SuiteResult(name, trials)
        body(rec, seed, trials)
        if rec.worst == -math.inf:  # no check ran
            rec.worst = 0.0
        return rec

    return run


def _sampled(seed: int, trials: int, stream: int, draw):
    """Yield (trial, unitaries, rest) in trial order; draw(rng, trial) returns the trial's Gaussian
    stack (k, n, n) and the rest it drew. A dimension gets one QR and one unitarity test per 1024 trials."""
    for first in range(0, trials, 1024):  # a block at a time: memory stays flat in --trials
        drawn = [draw(sampling.trial_generator(seed, trial, stream), trial)
                 for trial in range(first, min(trials, first + 1024))]
        units = {n: iter(moments.Unitary.stack(sampling.haar_unitaries(
            np.concatenate([G for G, _ in drawn if G.shape[-1] == n]))))
            for n in sorted({G.shape[-1] for G, _ in drawn})}
        for trial, (G, rest) in enumerate(drawn, first):
            yield trial, list(itertools.islice(units[G.shape[-1]], len(G))), rest


def _instances(seed: int, trials: int, stream: int, counts=(2,), dmin: int = 2, dmax: int = 8):
    """Yield (d, unitaries, state, instance of raw arrays) per trial: counts[trial % len(counts)]
    unitaries, then one state, of dimension d = dmin + trial % (dmax - dmin + 1)."""
    def draw(rng, trial):
        d = dmin + trial % (dmax - dmin + 1)
        return sampling.complex_gaussians(rng, counts[trial % len(counts)], d, d), sampling.random_state(rng, d)

    for trial, ops, psi in _sampled(seed, trials, stream, draw):
        yield psi.dim, ops, psi, {"trial": trial, "dimension": psi.dim,
                                  "operators": [U.matrix for U in ops], "state": psi.amplitudes}


@_suite
def suite_pair_chain(rec: SuiteResult, seed: int, trials: int):
    """lb <= k_m <= k_m_v <= variance product, all block sizes, weight grid."""
    for d, (A, B), psi, instance in _instances(seed, trials, 0):
        pair = moments.modulus_pair(A, B, psi)
        vp = bounds.variance_product(pair)
        lb = bounds.correlation_bound(pair)
        for m in range(1, d + 1):
            km = bounds.split_bound(pair, SubsetSelection.first_block(d, m))
            inst = dict(instance, params={"m": m})
            rec.check(lb - km, SLACK, inst, "lb > k_m")
            for v in (0.0, 0.1, 0.5, 1.0):
                kmv = v * km + (1.0 - v) * vp
                inst_v = dict(instance, params={"m": m, "v": v})
                rec.check(km - kmv, SLACK, inst_v, "k_m > k_m_v")
                rec.check(kmv - vp, SLACK, inst_v, "k_m_v > variance_product")


@_suite
def suite_subset_chain(rec: SuiteResult, seed: int, trials: int):
    """k_m <= k_tilde_m <= k_tilde <= variance product for every block size."""
    for d, (A, B), psi, instance in _instances(seed, trials, 1):
        pair = moments.modulus_pair(A, B, psi)
        vp = bounds.variance_product(pair)
        table = bounds.best_split_bounds(pair)
        ktilde = max(val for val, _ in table)
        for m in range(1, d):
            km = bounds.split_bound(pair, SubsetSelection.first_block(d, m))
            ktm, _ = table[min(m, d - m) - 1]  # sizes m and d - m tie bit for bit
            inst = dict(instance, params={"m": m})
            rec.check(km - ktm, SLACK, inst, "k_m > k_tilde_m")
            rec.check(ktm - ktilde, SLACK, inst, "k_tilde_m > k_tilde")
            rec.check(ktilde - vp, SLACK, inst, "k_tilde > variance_product")


@_suite
def suite_fine_grained_chain(rec: SuiteResult, seed: int, trials: int):
    """Interpolation family: endpoints and monotonicity."""
    for d, (A, B), psi, instance in _instances(seed, trials, 2):
        pair = moments.modulus_pair(A, B, psi)
        seq = bounds.fine_grained_sequence(pair)
        rec.check(abs(seq[0] - bounds.variance_product(pair)), SLACK, instance,
                  "i_1 != variance_product")
        rec.check(abs(seq[-1] - bounds.correlation_bound(pair)), SLACK, instance,
                  "i_n != lb")
        for lev in range(1, d):
            rec.check(seq[lev] - seq[lev - 1], SLACK,
                      dict(instance, params={"level": lev + 1}), "i_d increased")


@_suite
def suite_cross_bound_chain(rec: SuiteResult, seed: int, trials: int):
    """Paired cross bound: below the variance product on random states, and
    the full sandwich down to level 2 on the ex1 closed-form family."""
    ex1 = {d: scenarios.scenario("ex1", d) for d in range(3, 3 + min(trials, 6))}  # its d, once per run
    ex1_ops = {d: [moments.Unitary(M) for _, M in scen.operators] for d, scen in ex1.items()}
    for d, (A, B), psi, instance in _instances(seed, trials, 3, dmin=3):
        pair = moments.modulus_pair(A, B, psi)
        rec.check(bounds.paired_cross_bound(pair) - bounds.variance_product(pair),
                  SLACK, instance, "i_1_prime > variance_product")
        theta = float(sampling.trial_generator(seed, instance["trial"], 31).uniform(0.0, math.pi))
        fam = moments.modulus_pair(*ex1_ops[d], ex1[d].state(theta))
        inst = {"trial": instance["trial"], "dimension": d, "example": "ex1", "theta": theta}
        rec.check(bounds.paired_cross_bound(fam) - bounds.variance_product(fam),
                  SLACK, inst, "ex1: i_1_prime > variance_product")
        rec.check(bounds.fine_grained_sequence(fam)[1] - bounds.paired_cross_bound(fam),
                  SLACK, inst, "ex1: i_2 > i_1_prime")


@_suite
def suite_subset_oracle(rec: SuiteResult, seed: int, trials: int):
    """Subset enumeration equals brute-force permutation maximization.

    Every permutation's block value is the value of the subset its first m
    slots occupy; the oracle walks all n! permutations through that
    reduction and must land on exactly the enumerated maximum. A sample of
    permutations is also evaluated with sums taken in raw permutation order
    to confirm the canonical-order kernel is not hiding rounding drift.
    """
    for n, (A, B), psi, instance in _instances(seed, trials, 6, dmax=6):
        m = 1 + instance["trial"] % n
        pair = moments.modulus_pair(A, B, psi)
        instance["params"] = {"m": m}
        by_subset = {
            combo: bounds.split_bound(pair, SubsetSelection(n=n, indices=tuple(i + 1 for i in combo)))
            for combo in itertools.combinations(range(n), m)
        }
        enum_max, _ = bounds.best_split_bound(pair, m)
        perms = list(itertools.permutations(range(n)))
        perm_max = max(by_subset[tuple(sorted(p[:m]))] for p in perms)
        exact = 0.0 if perm_max == enum_max else abs(perm_max - enum_max) + 1.0
        rec.check(exact, 0.0, instance, "enumeration != permutation brute force")
        x2 = [float(t) for t in pair.x ** 2]
        y2 = [float(t) for t in pair.y ** 2]
        for p in perms[:: max(1, len(perms) // 20)]:
            raw = _raw_order_value(x2, y2, p, m)
            canon = by_subset[tuple(sorted(p[:m]))]
            rec.check(abs(raw - canon), 1e-12,
                      dict(instance, permutation=list(p)), "raw-order drift")


def _raw_order_value(x2, y2, perm, m) -> float:
    xs = sum(x2[i] for i in perm[:m])
    ys = sum(y2[i] for i in perm[:m])
    xc = sum(x2[i] for i in perm[m:])
    yc = sum(y2[i] for i in perm[m:])
    return (math.sqrt(xs) * math.sqrt(ys) + math.sqrt(xc) * math.sqrt(yc)) ** 2


@_suite
def suite_split_symmetry(rec: SuiteResult, seed: int, trials: int):
    """Best split at block size m equals the one at n - m."""
    for d, (A, B), psi, instance in _instances(seed, trials, 4, dmax=6):
        pair = moments.modulus_pair(A, B, psi)
        best = [bounds.best_split_bound(pair, m)[0] for m in range(1, d)]
        for m in range(1, d):
            rec.check(abs(best[m - 1] - best[d - m - 1]), 1e-12, dict(instance, params={"m": m}),
                      "k_tilde_m != k_tilde_(n-m)")


@_suite
def suite_gram_psd(rec: SuiteResult, seed: int, trials: int):
    """Gram matrix of (I, U_1..U_l) has min eigenvalue >= -1e-10."""
    for _, ops, psi, instance in _instances(seed, trials, 7, counts=(2, 3, 4), dmax=6):
        lo = float(np.min(np.linalg.eigvalsh(moments.gram_matrix(ops, psi))))
        rec.check(-lo, SLACK, instance, "gram matrix not PSD")


@_suite
def suite_triple_bound(rec: SuiteResult, seed: int, trials: int):
    """Three-operator floor sits below the triple variance product and
    differs from it by exactly the 4x4 Gram determinant."""
    for _, ops, psi, instance in _instances(seed, trials, 8, counts=(3,), dmax=6):
        deltas = [moments.delta_vector(U, psi) for U in ops]
        vp3 = math.prod(dv.variance for dv in deltas)
        rhs = bounds.triple_correlation_bound(*deltas)
        det = float(np.real(np.linalg.det(moments.gram_matrix(ops, psi))))
        rec.check(rhs - vp3, SLACK, instance, "triple bound exceeds product")
        rec.check(-det, SLACK, instance, "gram determinant negative")
        rec.check(abs(det - (vp3 - rhs)), 1e-9, instance,
                  "determinant identity broken")


@_suite
def suite_multi_op(rec: SuiteResult, seed: int, trials: int):
    """Geometric-mean bounds stay below the variance product; tilde >= plain."""
    for d, ops, psi, instance in _instances(seed, trials, 9, counts=(3, 4), dmax=6):
        m = 1 + instance["trial"] % max(1, d // 2)
        instance["params"] = {"m": m, "l": len(ops)}
        deltas = [moments.delta_vector(U, psi) for U in ops]
        prod = math.prod(dv.variance for dv in deltas)
        first = bounds.bound_report(moments.ModulusPair.from_deltas(*deltas[:2]), m, v=0.1)
        vals = bounds.geometric_mean_bound(deltas, first)
        for flavor in bounds.FLAVORS:
            rec.check(vals[flavor] - prod, SLACK,
                      dict(instance, flavor=flavor), "multi-op bound exceeds product")
        rec.check(vals["plain"] - vals["tilde"], 1e-12, instance,
                  "tilde flavor below plain flavor")


@_suite
def suite_purification(rec: SuiteResult, seed: int, trials: int):
    """Purified expectations reproduce Tr(A rho); reduced states behave as
    documented (rho on one side, its transpose on the other)."""
    def draw(rng, trial):
        r = rng.uniform(-1.0, 1.0, 3)
        return sampling.complex_gaussians(rng, 3, 2, 2), r

    for trial, ops, r in _sampled(seed, trials, 10, draw):
        nrm = float(np.linalg.norm(r))
        r = r * (0.98 / nrm) if nrm >= 1.0 else r
        rho = moments.bloch_density(r)
        psi = moments.purify(rho)
        instance = {"trial": trial, "bloch": [float(t) for t in r]}
        for A in (U.matrix for U in ops):
            got = moments.expectation(moments.lift(A), psi)
            want = complex(np.trace(A @ rho.matrix))
            rec.check(abs(got - want), SLACK,
                      dict(instance, operators=[A]),
                      "lifted expectation != Tr(A rho)")
        proj = np.outer(psi.amplitudes, psi.amplitudes.conj())
        kept_second = linalg.partial_trace(proj, keep="second")
        kept_first = linalg.partial_trace(proj, keep="first")
        rec.check(float(np.max(np.abs(kept_second - rho.matrix))), 1e-9,
                  instance, "reduced state (second factor) != rho")
        rec.check(float(np.max(np.abs(kept_first - rho.matrix.T))), 1e-9,
                  instance, "reduced state (first factor) != transpose(rho)")


@_suite
def suite_mixed_state_floor(rec: SuiteResult, seed: int, trials: int):
    """Mixed-state variances dominate the worst pure eigenstate, in both
    product and sum form."""
    def draw(rng, trial):
        rho = sampling.random_density(rng, 2 + trial % 3)
        return sampling.complex_gaussians(rng, 2, rho.dim, rho.dim), rho

    for trial, (uA, uB), rho in _sampled(seed, trials, 11, draw):
        eig = [moments.PureState(amplitudes=v / np.linalg.norm(v)) for v in rho.eig.eigenvectors.T]
        pa = [moments.variance_pure(uA, u) for u in eig]
        pb = [moments.variance_pure(uB, u) for u in eig]
        va = moments.variance_mixed(uA, rho)
        vb = moments.variance_mixed(uB, rho)
        instance = {"trial": trial, "dimension": rho.dim,
                    "operators": [uA.matrix, uB.matrix], "density": rho.matrix}
        rec.check(min(a * b for a, b in zip(pa, pb)) - va * vb, 1e-9,
                  instance, "product floor broken")
        rec.check(min(a + b for a, b in zip(pa, pb)) - (va + vb), 1e-9,
                  instance, "sum floor broken")


@_suite
def suite_equality_case(rec: SuiteResult, seed: int, trials: int):
    """Block-proportional modulus pairs saturate the split bound."""
    for trial in range(trials):
        rng = sampling.trial_generator(seed, trial, 12)
        n = 2 + trial % 7
        m = 1 + trial % (n - 1)
        y = np.abs(rng.standard_normal(n)) + 0.05
        k = float(abs(rng.standard_normal()) + 0.05)
        block = SubsetSelection.first_block(n, m)
        instance = {"trial": trial, "dimension": n, "params": {"m": m, "k": k}}
        # Globally proportional blocks balance the cross products exactly.
        pair = moments.ModulusPair(k * y, y)
        rec.check(abs(bounds.split_bound(pair, block) - bounds.variance_product(pair)),
                  SLACK, instance, "proportional pair misses saturation")
        # A vanishing complement is the other saturating configuration.
        xz, yz = k * y, y.copy()
        xz[m:] = yz[m:] = 0.0
        pair_z = moments.ModulusPair(xz, yz)
        rec.check(abs(bounds.split_bound(pair_z, block) - bounds.variance_product(pair_z)),
                  SLACK, instance, "zero-complement pair misses saturation")


@_suite
def suite_coordinate_identities(rec: SuiteResult, seed: int, trials: int):
    """Variance and correlation agree across all their equivalent forms."""
    for d, (A, B), psi, instance in _instances(seed, trials, 5):
        pair = moments.modulus_pair(A, B, psi)
        va = moments.variance_pure(A, psi)
        mean = moments.expectation(A, psi)
        rec.check(abs(va - (1.0 - abs(mean) ** 2)), SLACK, instance,
                  "variance != 1 - |mean|^2")
        rec.check(abs(va - float(np.sum(pair.x ** 2))), SLACK, instance,
                  "variance != |x|^2")
        c_ops = complex(
            np.vdot(psi.amplitudes, (A.matrix.conj().T @ B.matrix) @ psi.amplitudes)
            - np.conj(np.vdot(psi.amplitudes, A.matrix @ psi.amplitudes))
            * np.vdot(psi.amplitudes, B.matrix @ psi.amplitudes))
        c_coord = moments.correlation(A, B, psi)
        rec.check(abs(c_ops - c_coord), SLACK, instance,
                  "correlation forms disagree")


def run_all(seed: int, trials: int) -> list[SuiteResult]:
    """Run every suite in order; four costly ones stop at 200 or 300 trials."""
    return [
        suite_pair_chain(seed, trials),
        suite_subset_chain(seed, trials),
        suite_fine_grained_chain(seed, trials),
        suite_cross_bound_chain(seed, trials),
        suite_subset_oracle(seed, min(trials, 200)),
        suite_split_symmetry(seed, min(trials, 300)),
        suite_gram_psd(seed, trials),
        suite_triple_bound(seed, trials),
        suite_multi_op(seed, min(trials, 300)),
        suite_purification(seed, min(trials, 300)),
        suite_mixed_state_floor(seed, trials),
        suite_equality_case(seed, trials),
        suite_coordinate_identities(seed, trials),
    ]
