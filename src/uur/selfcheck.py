"""Seeded randomized invariant suites backing the `check` CLI command.

Each suite runs trials 0..trials-1; the `_suite` decorator registers its
body under the function's name. Every trial draws from its own
counter-based stream (one Philox per suite and stream, re-keyed per trial),
so a rerun reproduces every draw. `run_all` is the one public runner; its
sampler (`_run`) runs any list of suites: per block of 64 trials, every
suite draws (most through `_Draws`: Gaussian matrices and a raw state in
one call), each dimension's matrices become unitary in one QR and one
unitarity test and its raw states pass one norm test and one stacked
delta-vector pass (`_sample`), then each suite checks its block. Every delta
vector of `check` comes from `moments.delta_stack`, in that pass or in two
suites' own stacks (ex1 states, density eigenvectors). A suite reports its
trials, failures, worst margin and serialized first counterexample.

Two tempting claims are false and are NOT suites here: the paired cross
bound is not >= level 2 of the fine-grained family on general states (it
is on the ex1 family, which is what cross_bound_chain covers), and the
purified projector's two partial traces are rho and transpose(rho), not
rho twice. The suites check what holds instead, and so do the acceptance
tests.
"""

from __future__ import annotations

import collections
import itertools
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from . import bounds, linalg, moments, sampling, scenarios
from .bounds import SLACK


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


_BLOCK = 64  # trials per suite in flight: a block's draws of every suite are held at once
_Spec = collections.namedtuple("_Spec", "name stream draw setup cap body")
_SPECS = []  # every suite, in the order run_all runs them


def _suite(stream: int, draw, setup=lambda seed, trials: (), cap=math.inf):
    """Register body(rec, items, *setup(seed, trials)), which checks a block's [trial, unitaries, rest], in
    _SPECS under its name; draw(rng, trial) returns a trial's Gaussian stack (k, n, n) and rest."""
    def decorate(body):
        _SPECS.append(_Spec(body.__name__.removeprefix("suite_"), stream, draw, setup, cap, body))
        return body

    return decorate


def _run(seed: int, runs) -> list[SuiteResult]:
    """Run (spec, trials) suites _BLOCK trials at a time: all draw, each dimension's matrices (suite order,
    then trial order) pass one QR and one unitarity test, _sample forms the states, each suite checks."""
    recs = [SuiteResult(spec.name, trials) for spec, trials in runs]
    setups = [spec.setup(seed, trials) for spec, trials in runs]
    rngs = [sampling.trial_generators(seed, trials, spec.stream) for spec, trials in runs]
    while any(drawn := [[(trial, *spec.draw(rng, trial)) for trial, rng in itertools.islice(gen, _BLOCK)]
                        for (spec, _), gen in zip(runs, rngs)]):
        stacks = [G for block in drawn for _, G, _ in block]
        units = {n: iter(moments.Unitary.stack(sampling.haar_unitaries(
            np.concatenate([G for G in stacks if G.shape[-1] == n]))))
            for n in sorted({G.shape[-1] for G in stacks})}
        blocks = [[[trial, list(itertools.islice(units[G.shape[-1]], len(G))), rest] for trial, G, rest in block]
                  for block in drawn]
        del drawn, stacks, units  # the Gaussian matrices, now unitaries, go before the bodies run
        _sample([item for (spec, _), block in zip(runs, blocks) if isinstance(spec.draw, _Draws)
                 for item in block])
        for (spec, _), rec, setup, block in zip(runs, recs, setups, blocks):
            spec.body(rec, block, *setup)
        del blocks, block  # and this block's arrays before the next block is drawn
    return [replace(rec, worst=0.0) if rec.worst == -math.inf else rec for rec in recs]  # none ran


class _Draws(collections.namedtuple("_Draws", "counts dmin dmax", defaults=((2,), 2, 8))):
    """draw(rng, trial): counts[trial % len(counts)] Gaussian matrices and a raw state, of dimension
    dmin + trial % (dmax - dmin + 1), from one standard_normal call; _sample replaces the raw state."""

    def __call__(self, rng, trial):
        d = self.dmin + trial % (self.dmax - self.dmin + 1)
        return sampling.gaussian_trial(rng, self.counts[trial % len(self.counts)], d)


def _sample(items):
    """Put (state, its dimension's delta_stack arrays, its rows) for the raw state of each item [trial,
    unitaries, raw state]: per dimension, each state is normalised by its own norm (a stacked norm differs
    in the last bits), all pass one norm test, and one delta_stack forms every unitary's delta vector."""
    for group in [[item for item in items if item[2].size == n] for n in sorted({v.size for *_, v in items})]:
        counts = [len(ops) for _, ops, _ in group]
        P = moments.normalized_rows(np.array([v for *_, v in group]))
        states = moments.PureState.stack(P)
        rows = moments.delta_stack(np.array([U.matrix for _, ops, _ in group for U in ops]),
                                   np.repeat(P, counts, axis=0))  # C-contiguous, as the form needs
        for item, psi, lo, k in zip(group, states, itertools.accumulate(counts, initial=0), counts):
            item[2] = psi, rows, slice(lo, lo + k)


def _instances(items):
    """(d, unitaries, state, delta vectors, their moduli, pair of the first two or None, instance) per item."""
    for trial, ops, (psi, (entries, means, moduli), rows) in items:
        deltas = [moments.DeltaVector(e, m) for e, m in zip(entries[rows], means[rows].tolist())]
        pair = moments.ModulusPair.unchecked(*moduli[rows][:2]) if len(ops) > 1 else None
        yield psi.dim, ops, psi, deltas, moduli[rows], pair, {
            "trial": trial, "dimension": psi.dim, "operators": [U.matrix for U in ops], "state": psi.amplitudes}


@_suite(0, _Draws())
def suite_pair_chain(rec: SuiteResult, items):
    """lb <= k_m <= k_m_v <= variance product, all block sizes, weight grid."""
    for d, *_, pair, instance in _instances(items):
        vp = bounds.variance_product(pair)
        lb = bounds.correlation_bound(pair)
        for m in range(1, d + 1):
            km = bounds.split_bound(pair, range(1, m + 1))
            inst = dict(instance, params={"m": m})
            rec.check(lb - km, SLACK, inst, "lb > k_m")
            for v in (0.0, 0.1, 0.5, 1.0):
                kmv = v * km + (1.0 - v) * vp
                inst_v = dict(instance, params={"m": m, "v": v})
                rec.check(km - kmv, SLACK, inst_v, "k_m > k_m_v")
                rec.check(kmv - vp, SLACK, inst_v, "k_m_v > variance_product")


@_suite(1, _Draws())
def suite_subset_chain(rec: SuiteResult, items):
    """k_m <= k_tilde_m <= k_tilde <= variance product for every block size."""
    for d, *_, pair, instance in _instances(items):
        vp = bounds.variance_product(pair)
        table = bounds.best_split_bounds(pair)
        ktilde = max(val for val, _ in table)
        for m in range(1, d):
            km = bounds.split_bound(pair, range(1, m + 1))
            ktm, _ = table[min(m, d - m) - 1]  # sizes m and d - m tie bit for bit
            inst = dict(instance, params={"m": m})
            rec.check(km - ktm, SLACK, inst, "k_m > k_tilde_m")
            rec.check(ktm - ktilde, SLACK, inst, "k_tilde_m > k_tilde")
            rec.check(ktilde - vp, SLACK, inst, "k_tilde > variance_product")


@_suite(2, _Draws())
def suite_fine_grained_chain(rec: SuiteResult, items):
    """Interpolation family: endpoints and monotonicity."""
    for d, *_, pair, instance in _instances(items):
        seq = bounds.fine_grained_sequence(pair)
        rec.check(abs(seq[0] - bounds.variance_product(pair)), SLACK, instance,
                  "i_1 != variance_product")
        rec.check(abs(seq[-1] - bounds.correlation_bound(pair)), SLACK, instance,
                  "i_n != lb")
        for lev in range(1, d):
            rec.check(seq[lev] - seq[lev - 1], SLACK,
                      dict(instance, params={"level": lev + 1}), "i_d increased")


def _ex1_family(seed: int, trials: int):
    """Per run: the ex1 scenario and its operators, checked once, at each d reached; the theta stream."""
    ex1 = {d: scenarios.scenario("ex1", d) for d in range(3, 3 + min(trials, 6))}
    ex1_ops = {d: [moments.Unitary(M) for _, M in scen.operators] for d, scen in ex1.items()}
    return ex1, ex1_ops, sampling.trial_generators(seed, trials, 31)


@_suite(3, _Draws(dmin=3), setup=_ex1_family)
def suite_cross_bound_chain(rec: SuiteResult, items, ex1, ex1_ops, thetas):
    """Paired cross bound: below the variance product on random states, and
    the full sandwich down to level 2 on the ex1 closed-form family."""
    block = list(zip(_instances(items), (float(rng.uniform(0.0, math.pi)) for _, rng in thetas)))
    fams = {}  # per d, one delta_stack per ex1 operator over the block's states, as a sweep forms its rows
    for d in {d for (d, *_), _ in block}:
        P = ex1[d].state([theta for (e, *_), theta in block if e == d])
        fams[d] = map(moments.ModulusPair.unchecked, *(moments.delta_stack(U.matrix[None], P)[2]
                                                       for U in ex1_ops[d]))
    for (d, *_, pair, instance), theta in block:
        rec.check(bounds.paired_cross_bound(pair) - bounds.variance_product(pair),
                  SLACK, instance, "i_1_prime > variance_product")
        fam = next(fams[d])
        inst = {"trial": instance["trial"], "dimension": d, "example": "ex1", "theta": theta}
        rec.check(bounds.paired_cross_bound(fam) - bounds.variance_product(fam),
                  SLACK, inst, "ex1: i_1_prime > variance_product")
        rec.check(bounds.fine_grained_sequence(fam)[1] - bounds.paired_cross_bound(fam),
                  SLACK, inst, "ex1: i_2 > i_1_prime")


@_suite(6, _Draws(dmax=6), cap=200)
def suite_subset_oracle(rec: SuiteResult, items):
    """Subset enumeration equals brute-force permutation maximization.

    Every permutation's block value is the value of the subset its first m
    slots occupy; the oracle walks all n! permutations through that
    reduction and must land on exactly the enumerated maximum. A sample of
    permutations is also evaluated with sums taken in raw permutation order
    to confirm the canonical-order kernel is not hiding rounding drift.
    """
    for n, *_, pair, instance in _instances(items):
        m = 1 + instance["trial"] % n
        instance["params"] = {"m": m}
        by_subset = {
            frozenset(combo): bounds.split_bound(pair, [i + 1 for i in combo])
            for combo in itertools.combinations(range(n), m)
        }
        enum_max, _ = bounds.best_split_bound(pair, m)
        perms = list(itertools.permutations(range(n)))
        firsts = map(frozenset, map(operator.itemgetter(slice(m)), perms))  # each one's first m slots
        perm_max = max(map(by_subset.__getitem__, firsts))
        exact = 0.0 if perm_max == enum_max else abs(perm_max - enum_max) + 1.0
        rec.check(exact, 0.0, instance, "enumeration != permutation brute force")
        x2, y2 = pair.squares[0].tolist(), pair.squares[1].tolist()
        for p in perms[:: max(1, len(perms) // 20)]:
            raw = _raw_order_value(x2, y2, p, m)
            canon = by_subset[frozenset(p[:m])]
            rec.check(abs(raw - canon), 1e-12,
                      dict(instance, permutation=list(p)), "raw-order drift")


def _raw_order_value(x2, y2, perm, m) -> float:
    # += adds left to right; the builtin sum is compensated from Python 3.12 on.
    xs = ys = xc = yc = 0.0
    for i in perm[:m]:
        xs += x2[i]
        ys += y2[i]
    for i in perm[m:]:
        xc += x2[i]
        yc += y2[i]
    return (math.sqrt(xs) * math.sqrt(ys) + math.sqrt(xc) * math.sqrt(yc)) ** 2


@_suite(4, _Draws(dmax=6), cap=300)
def suite_split_symmetry(rec: SuiteResult, items):
    """Best split at block size m equals the one at n - m."""
    for d, *_, pair, instance in _instances(items):
        best = [bounds.best_split_bound(pair, m)[0] for m in range(1, d)]
        for m in range(1, d):
            rec.check(abs(best[m - 1] - best[d - m - 1]), 1e-12, dict(instance, params={"m": m}),
                      "k_tilde_m != k_tilde_(n-m)")


@_suite(7, _Draws((2, 3, 4), dmax=6))
def suite_gram_psd(rec: SuiteResult, items):
    """Gram matrix of (I, U_1..U_l) has min eigenvalue >= -1e-10."""
    for _, ops, psi, *_, instance in _instances(items):
        lo = float(np.linalg.eigvalsh(moments.gram_matrix(ops, psi)).min())
        rec.check(-lo, SLACK, instance, "gram matrix not PSD")


@_suite(8, _Draws((3,), dmax=6))
def suite_triple_bound(rec: SuiteResult, items):
    """Three-operator floor sits below the triple variance product and
    differs from it by exactly the 4x4 Gram determinant."""
    block, found = list(_instances(items)), {}  # found: each item's (vp3, rhs), one stacked call per dimension
    for d in {d for d, *_ in block}:
        group = [i for i, (e, *_) in enumerate(block) if e == d]
        E = np.array([[dv.entries for dv in block[i][3]] for i in group]).transpose(1, 0, 2)
        found.update(zip(group, zip(*(t.tolist() for t in bounds.triple_correlation_bounds(*E)))))
    for i, (_, ops, psi, deltas, *_, instance) in enumerate(block):
        vp3, rhs = found[i]
        det = float(np.linalg.det(moments.gram_matrix(ops, psi)).real)
        rec.check(rhs - vp3, SLACK, instance, "triple bound exceeds product")
        rec.check(-det, SLACK, instance, "gram determinant negative")
        rec.check(abs(det - (vp3 - rhs)), 1e-9, instance,
                  "determinant identity broken")


@_suite(9, _Draws((3, 4), dmax=6), cap=300)
def suite_multi_op(rec: SuiteResult, items):
    """Geometric-mean bounds stay below the variance product; tilde >= plain."""
    for d, ops, _, deltas, moduli, _, instance in _instances(items):
        m = 1 + instance["trial"] % max(1, d // 2)
        instance["params"] = {"m": m, "l": len(ops)}
        prod = math.prod(dv.variance for dv in deltas)
        vals = bounds.bound_reports(moduli[:, None], m, v=0.1)[2][0]  # l stacks of one row
        for flavor in bounds.FLAVORS:
            rec.check(vals[flavor] - prod, SLACK,
                      dict(instance, flavor=flavor), "multi-op bound exceeds product")
        rec.check(vals["plain"] - vals["tilde"], 1e-12, instance,
                  "tilde flavor below plain flavor")


def _bloch_draws(rng, trial):
    r = rng.uniform(-1.0, 1.0, 3)
    return sampling.complex_gaussians(rng, 3, 2, 2), r


@_suite(10, _bloch_draws, cap=300)
def suite_purification(rec: SuiteResult, items):
    """Purified expectations reproduce Tr(A rho); reduced states behave as
    documented (rho on one side, its transpose on the other)."""
    for trial, ops, r in items:
        nrm = linalg.vector_norm(r)
        r = r * (0.98 / nrm) if nrm >= 1.0 else r
        rho = moments.bloch_density(r)
        psi = moments.PureState(moments.purify([a[None] for a in rho.eig])[0])  # a stack of one
        instance = {"trial": trial, "bloch": [float(t) for t in r]}
        for A in (U.matrix for U in ops):
            got = moments.expectation(moments.lift(A), psi)
            want = complex((A @ rho.matrix).trace())
            rec.check(abs(got - want), SLACK,
                      dict(instance, operators=[A]),
                      "lifted expectation != Tr(A rho)")
        proj = psi.amplitudes[:, None] * psi.amplitudes.conj()[None, :]
        kept_second = linalg.partial_trace(proj, keep="second")
        kept_first = linalg.partial_trace(proj, keep="first")
        rec.check(float(np.abs(kept_second - rho.matrix).max()), 1e-9,
                  instance, "reduced state (second factor) != rho")
        rec.check(float(np.abs(kept_first - rho.matrix.T).max()), 1e-9,
                  instance, "reduced state (first factor) != transpose(rho)")


def _density_draws(rng, trial):
    rho = sampling.random_density(rng, 2 + trial % 3)
    return sampling.complex_gaussians(rng, 2, rho.dim, rho.dim), rho


@_suite(11, _density_draws)
def suite_mixed_state_floor(rec: SuiteResult, items):
    """Mixed-state variances dominate the worst pure eigenstate, in both
    product and sum form."""
    for trial, (uA, uB), rho in items:
        P = np.array([moments.PureState.normalized(v).amplitudes for v in rho.eig.eigenvectors.T])
        stacks = [moments.delta_stack(U.matrix[None], P) for U in (uA, uB)]
        pa, pb = ([moments.DeltaVector(e, m).variance for e, m in zip(entries, means.tolist())]
                  for entries, means, _ in stacks)
        va = moments.variance_mixed(uA, rho)
        vb = moments.variance_mixed(uB, rho)
        instance = {"trial": trial, "dimension": rho.dim,
                    "operators": [uA.matrix, uB.matrix], "density": rho.matrix}
        rec.check(min(a * b for a, b in zip(pa, pb)) - va * vb, 1e-9,
                  instance, "product floor broken")
        rec.check(min(a + b for a, b in zip(pa, pb)) - (va + vb), 1e-9,
                  instance, "sum floor broken")


def _proportional_draws(rng, trial):
    y = np.abs(rng.standard_normal(2 + trial % 7)) + 0.05
    return np.empty((0, 2, 2)), (y, float(abs(rng.standard_normal()) + 0.05))  # no unitaries


@_suite(12, _proportional_draws)
def suite_equality_case(rec: SuiteResult, items):
    """Block-proportional modulus pairs saturate the split bound."""
    for trial, _, (y, k) in items:
        n = len(y)
        m = 1 + trial % (n - 1)
        block = range(1, m + 1)
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


@_suite(5, _Draws())
def suite_coordinate_identities(rec: SuiteResult, items):
    """Variance and correlation agree across all their equivalent forms."""
    for _, (A, B), psi, (dA, dB), _, pair, instance in _instances(items):
        va = dA.variance
        mean = moments.expectation(A, psi)
        rec.check(abs(va - (1.0 - abs(mean) ** 2)), SLACK, instance,
                  "variance != 1 - |mean|^2")
        rec.check(abs(va - float(pair.squares[0].sum())), SLACK, instance,
                  "variance != |x|^2")
        c_ops = complex(
            np.vdot(psi.amplitudes, (A.matrix.conj().T @ B.matrix) @ psi.amplitudes)
            - np.conj(np.vdot(psi.amplitudes, A.matrix @ psi.amplitudes))
            * np.vdot(psi.amplitudes, B.matrix @ psi.amplitudes))
        rec.check(abs(c_ops - dA.correlation(dB)), SLACK, instance,
                  "correlation forms disagree")


def run_all(seed: int, trials: int) -> list[SuiteResult]:
    """Run every suite in order on one sampler; four costly ones stop at 200 or 300 trials."""
    return _run(seed, [(spec, min(trials, spec.cap)) for spec in _SPECS])
