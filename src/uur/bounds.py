"""Lower bounds on variance products of unitary operator pairs and tuples.

The pairwise bounds consume the coordinate moduli x, y of a ModulusPair,
the multi-operator ones the DeltaVectors those come from. The central
construction splits the index set into a block S and its complement, applies
the Cauchy-Schwarz inequality per block, and once more across the two
blocks:

    (x . y)^2  <=  (|x_S||y_S| + |x_Sc||y_Sc|)^2  <=  |x|^2 |y|^2

The middle quantity is the split bound; maximizing it over which indices
form the block gives the best split bound. A block is a sorted tuple of
1-based indices. One pass over the support of (x^2, y^2) serves all the
sizes m <= n/2 a report needs: a support part and its complement give the
same value, so each part of at most half the support is evaluated once. The
pass takes the squares x^2, y^2 and gives every size's value, and a block of
a size only when asked (a report asks for its argmax's). The cap is judged on
the nominal binomial(n, m) of every size first. The interpolation family i_d
and the paired cross bound are transcribed comparison bounds, bit-faithful to
their published term-by-term sums: each pair's terms are formed once, and
each level adds them left to right in (i, j) order. Like the search, both
skip a zero coordinate's terms: each is +-0.0, which changes no bit of a
total >= +0.0, unless an overflow makes it inf * 0.0 = NaN.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import SearchSpaceTooLarge, UurError
from .moments import DeltaVector, ModulusPair

DEFAULT_CAP = 5_000_000
DEFAULT_V = 0.1
# Rounding room for each link of a bound chain: a later bound may exceed an
# earlier one by this much before the chain counts as broken.
SLACK = 1e-10
FLAVORS = ("plain", "convex", "tilde")


def _integer(value, what: str) -> int:
    try:  # ints and numpy integers pass; 1.7, 1.0 and "1" do not
        return operator.index(value)
    except TypeError:
        raise UurError(f"{what} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class BoundSet:
    """Every bound for one operator pair and state, plus the variance product.

    i_d holds the full interpolation family: element k-1 is the level-(k)
    value, so i_d[0] is the variance product and i_d[-1] is lb. i_1_prime is
    None when the dimension is below 3 (its defining formula needs a third
    coordinate). Fields are declared in the order the `bounds` JSON prints them.
    """

    m: int
    v: float
    variance_product: float
    lb: float
    k_m: float
    k_m_v: float
    k_tilde_m: float
    k_tilde: float
    k_tilde_argmax: tuple[int, ...]
    i_d: tuple[float, ...]
    i_1_prime: float | None

    def validate(self) -> list[str]:
        """Return chain-invariant violations (empty list when consistent); a NaN link names its NaN."""
        bad = []
        vp = self.variance_product

        def chain(names, vals):
            for (na, va), (nb, vb) in itertools.pairwise(zip(names, vals)):
                if not va <= vb + SLACK:  # a NaN member breaks the link too
                    broken(na, va, nb, vb)

        def broken(na, va, nb, vb):
            nan = na if math.isnan(va) else nb if math.isnan(vb) else None
            msg = f"{nan} is NaN" if nan else f"{na} > {nb} by {va - vb:.3e}"
            if msg not in bad:
                bad.append(msg)

        chain(("lb", "k_m", "k_m_v", "variance_product"), (self.lb, self.k_m, self.k_m_v, vp))
        chain(("k_m", "k_tilde_m", "k_tilde", "variance_product"),
              (self.k_m, self.k_tilde_m, self.k_tilde, vp))
        for lev in range(1, len(self.i_d)):
            if not self.i_d[lev] <= self.i_d[lev - 1] + SLACK:
                broken(f"i_{lev + 1}", self.i_d[lev], f"i_{lev}", self.i_d[lev - 1])
        if abs(self.i_d[0] - vp) > SLACK:
            bad.append(f"i_1 != variance_product by {abs(self.i_d[0] - vp):.3e}")
        if abs(self.i_d[-1] - self.lb) > SLACK:
            bad.append(f"i_n != lb by {abs(self.i_d[-1] - self.lb):.3e}")
        return bad


def _squares(pair: ModulusPair) -> tuple[list[float], list[float]]:
    return (pair.x ** 2).tolist(), (pair.y ** 2).tolist()


def _pow_terms(pair: ModulusPair, X2: np.ndarray, Y2: np.ndarray) -> tuple[list[float], list[float], float]:
    """The C-pow squares of x and y, and the diagonal sum of numpy's squares X2 = x ** 2, Y2 = y ** 2."""
    try:  # C pow: a Python float's ** is numpy scalar's, but raises where that gives inf
        return [t ** 2 for t in pair.x.tolist()], [t ** 2 for t in pair.y.tolist()], float((X2 * Y2).sum())
    except OverflowError:
        return [float(t ** 2) for t in pair.x], [float(t ** 2) for t in pair.y], float((X2 * Y2).sum())


def _split_value(x2: list[float], y2: list[float], inside: frozenset[int]) -> float:
    # Sums run in ascending global index order for both blocks, so any two
    # representations of the same subset produce bit-identical results.
    xs = ys = xc = yc = 0.0
    for i in range(len(x2)):
        if i in inside:
            xs += x2[i]
            ys += y2[i]
        else:
            xc += x2[i]
            yc += y2[i]
    try:
        return (math.sqrt(xs) * math.sqrt(ys) + math.sqrt(xc) * math.sqrt(yc)) ** 2
    except OverflowError:  # finite block sums whose square passes the largest float
        return math.inf


def variance_product(pair: ModulusPair) -> float:
    """|x|^2 |y|^2, the quantity every bound here sits below."""
    return float((pair.x ** 2).sum() * (pair.y ** 2).sum())


def correlation_bound(pair: ModulusPair) -> float:
    """(x . y)^2, the squared inner product of the coordinate moduli.

    This is the weakest member of the split-bound chain and doubles as the
    final level of the interpolation family.
    """
    return float(pair.x.dot(pair.y) ** 2)  # numpy's pow: inf, not OverflowError, past 1.8e308


def split_bound(pair: ModulusPair, block) -> float:
    """Two-block Cauchy-Schwarz bound for a block: any iterable of distinct integer
    indices in 1..n, e.g. (2, 4) or range(1, m + 1) for the leading block."""
    idx = tuple(sorted(_integer(i, "subset index") for i in block))
    if not idx:
        raise UurError("subset must not be empty")
    if len(set(idx)) != len(idx):
        raise UurError(f"subset has repeated indices: {idx}")
    if idx[0] < 1 or idx[-1] > pair.dim:
        raise UurError(f"indices {idx} out of range 1..{pair.dim}")
    x2, y2 = _squares(pair)
    return _split_value(x2, y2, frozenset(i - 1 for i in idx))


def _blend(k: float, vp: float, v: float) -> float:
    if not 0.0 <= v <= 1.0:
        raise UurError(f"blend weight must lie in [0, 1], got {v}")
    return v * k + (1.0 - v) * vp


def _check_cap(n: int, m: int, cap: int) -> None:
    count = math.comb(n, m)
    if count > cap:
        raise SearchSpaceTooLarge(f"binomial({n}, {m}) = {count} subsets exceeds the cap of {cap}")


def _padded(part, pad: list[int]) -> tuple[int, ...]:  # a support part and free indices, sorted
    return tuple(sorted([*part, *pad]))


def _split_search(x2: list[float], y2: list[float], sizes, cap: int):
    """(values, block): each size's best value, and block(k), the smallest block reaching values[k]."""
    n = len(x2)
    for m in sizes:
        if not 1 <= m <= n:
            raise UurError(f"block size {m} out of range 1..{n}")
        _check_cap(n, m, cap)
    support, free = [], []
    for i in range(n):
        (support if x2[i] or y2[i] else free).append(i)
    s, f = len(support), len(free)
    parts = {}  # part size -> (best value, its smallest part)
    lo, hi = max(0, sizes[0] - f), min(sizes[-1], s)  # part sizes the (consecutive) sizes use
    for r in range(min(lo, s - hi), min(hi, s - lo, s // 2) + 1):
        top, first, last = -1.0, (), ()
        half = math.comb(s - 1, r - 1) if 2 * r == s > 0 else None
        for part in itertools.islice(itertools.combinations(support, r), half):
            val = _split_value(x2, y2, frozenset(part))
            if val > top:
                top, first, last = val, part, part
            elif val == top:  # complements come in reverse order: the last is the smallest
                last = part
        parts[r] = top, first
        if 2 * r < s and s - r <= hi:  # the complements' size is asked for
            parts[s - r] = top, [i for i in support if i not in last]
    values, spans = [], []
    for m in sizes:  # the largest value over the part sizes m pads; a NaN never wins
        best, span = -1.0, range(max(0, m - f), min(m, s) + 1)
        for t in span:
            if parts[t][0] > best:
                best = parts[t][0]
        values.append(best)
        spans.append(span)

    def block(k: int) -> tuple[int, ...]:
        m, best, smallest = sizes[k], values[k], ()
        for t in spans[k]:
            if parts[t][0] == best > -1.0:  # the smallest block of a part reaching best (-1.0: all NaN)
                combo = _padded(parts[t][1], free[:m - t]) if m > t else tuple(parts[t][1])
                smallest = min(smallest, combo) if smallest else combo
        return tuple([i + 1 for i in smallest])  # 1-based

    return values, block


def best_split_bound(pair: ModulusPair, m: int, cap: int = DEFAULT_CAP) -> tuple[float, tuple[int, ...]]:
    """(value, block): the maximum split bound over all blocks of size m and its block of
    1-based indices; ties go to the lexicographically smallest.

    Only the support of (x^2, y^2) is enumerated: a free index (x_i^2 = y_i^2 = 0.0) adds
    exactly 0.0 to both block sums, so the blocks sharing a support part T tie bit for bit
    and the smallest pads T with the m - |T| smallest free indices. T and its complement
    in the support tie too (the two block terms swap), so one pass evaluates each T of at
    most half the support once (at half, those holding the first support index) for T and
    its complement, keeps each part size's best value and smallest part and pads only the
    parts reaching the value of a size whose block is asked for. SearchSpaceTooLarge is
    raised, before any block is evaluated, when the nominal binomial(n, m) exceeds cap.
    """
    values, block = _split_search(*_squares(pair), [m], cap)
    return values[0], block(0)


def best_split_bounds(pair: ModulusPair, cap: int = DEFAULT_CAP) -> list[tuple[float, tuple[int, ...]]]:
    """best_split_bound's (value, block) for each block size m = 1 .. floor(n/2), in order,
    from one pass (size n - m would repeat size m); every size's nominal binomial(n, m) is
    capped first."""
    values, block = _split_search(*_squares(pair), range(1, max(1, pair.dim // 2) + 1), cap)
    return [(value, block(k)) for k, value in enumerate(values)]


def fine_grained_sequence(pair: ModulusPair) -> tuple[float, ...]:
    """All levels 1..n of the interpolation family, non-increasing in the level.

    Level 1 is |x|^2 |y|^2, level n is (x . y)^2; at level d a pair i < j
    (1-based) enters as 2 x_i y_i x_j y_j if j <= d, else x_i^2 y_j^2 + x_j^2 y_i^2.
    Each pair's terms are formed once; each level adds them with +=, left to
    right in (i, j) order: the per-level sum's floats in its order, bit for bit.
    np.sum (pairwise), math.fsum (exact) and sum (compensated from 3.12) move
    bits, as does x * x (an array's x ** 2, _squares) in place of C pow (~1
    draw in 1,000). Only pairs inside S = {i : x_i != 0 or y_i != 0} are
    formed, and a sum only at level 0 and at each such pair's j; any other
    level repeats the one before (the same floats in the same order). While
    the diagonal sum of x_i^2 y_i^2 is not finite, S is every index: an inf
    square or 2 x_i y_i times a zero is NaN.
    """
    return _fine_grained(pair, *_pow_terms(pair, pair.x ** 2, pair.y ** 2))


def _fine_grained(pair: ModulusPair, x2: list[float], y2: list[float], diagonal: float) -> tuple[float, ...]:
    n = pair.dim
    x, y = pair.x.tolist(), pair.y.tolist()
    support = [i for i in range(n) if x[i] or y[i]] if math.isfinite(diagonal) else range(n)
    terms = [(j, x2[i] * y2[j] + x2[j] * y2[i], 2.0 * x[i] * y[i] * x[j] * y[j])
             for i, j in itertools.combinations(support, 2)]
    family = []
    for level, stop in itertools.pairwise([0, *support[1:], n]):
        total = diagonal  # 0-based: pair (i, j) takes its cross term when j <= level
        for j, symmetric, cross in terms:
            total += cross if j <= level else symmetric
        family += [total] * (stop - level)
    return tuple(family)


def paired_cross_bound(pair: ModulusPair) -> float:
    """Comparison bound that pairs the second and third coordinates.

    Transcribed term by term from its published form:

        sum_i x_i^2 y_i^2  +  sum_{j != 1, i != j} x_i^2 y_j^2
        +  y_1^2 sum_{i >= 4} x_i^2  +  2 y_1^2 x_2 x_3

    (1-based indices; the third term is an empty sum when n == 3, and the
    second adds no x_i^2 y_j^2 with a zero factor while the diagonal sum is
    finite). The terms missing from |x|^2 |y|^2 are y_1^2 (x_2^2 + x_3^2 - 2 x_2 x_3), so

        i_1 - i_1'  =  y_1^2 (x_2 - x_3)^2  >=  0

    and the value never exceeds i_1, the variance product. Level 2 of the
    fine-grained family differs from i_1 by i_1 - i_2 = (x_1 y_2 - x_2 y_1)^2,
    hence i_1' - i_2 = (x_1 y_2 - x_2 y_1)^2 - y_1^2 (x_2 - x_3)^2, which has
    no fixed sign: x = y = (1, 1, 0) gives i_1' = 3 < i_2 = 4. The ordering
    i_2 <= i_1' holds on the ex1 clock/shift family, not on general states.

    Open: the ex1 closed forms, kept beside the tests in tests/oracles.py,
    pair x_2 with the last coordinate x_n instead, i_1 - y_1^2 (x_2 - x_n)^2.
    The two forms agree at n == 3 only (at n == 4 they differ by up to
    4.4e-2 on ex1), and which pairing the published bound means is not
    settled here.
    """
    return _paired_cross(pair, *_pow_terms(pair, pair.x ** 2, pair.y ** 2))


def _paired_cross(pair: ModulusPair, x2: list[float], y2: list[float], total: float) -> float:
    n = pair.dim
    if n < 3:
        raise UurError(f"paired cross bound needs dimension >= 3, got {n}")
    x, y = pair.x, pair.y
    every = not math.isfinite(total)
    rows = [i for i in range(n) if x2[i] or every]
    for j in range(1, n):
        if y2[j] or every:
            for i in rows:
                if i != j:
                    total += x2[i] * y2[j]
    total += float(y[0] ** 2 * (x[3:] ** 2).sum())
    total += float(2.0 * y[0] ** 2 * x[1] * x[2])
    return total


def triple_correlation_bound(dA: DeltaVector, dB: DeltaVector, dC: DeltaVector) -> float:
    """Three-operator floor built from the pairwise correlations.

    Takes the delta vectors of A, B and C on one state. The triple variance
    product minus this value equals the determinant of the 4x4 Gram matrix
    of (I, A, B, C), which is nonnegative, so the value never exceeds the
    triple variance product.
    """
    vA, vB, vC = dA.variance, dB.variance, dC.variance
    cAB = dA.correlation(dB)
    cAC = dA.correlation(dC)
    cBC = dB.correlation(dC)
    return float(
        vA * abs(cBC) ** 2
        + vB * abs(cAC) ** 2
        + vC * abs(cAB) ** 2
        - 2.0 * (cAC * np.conj(cBC) * np.conj(cAB)).real
    )


def geometric_mean_bound(deltas, first: BoundSet, cap: int = DEFAULT_CAP) -> dict[str, float]:
    """Multi-operator bounds: geometric means of the pairwise split bounds.

    Takes the delta vectors of l operators on one state and first, the
    bound_report of deltas[0] and deltas[1], whose m and v every pair uses.
    Per pair, "plain" is the split bound on the leading block of size m,
    "convex" its blend with weight v, "tilde" the best split of size m (first's
    k_m, k_m_v, k_tilde_m); each flavor's product over the pairs is raised to 1/(l-1).
    """
    deltas, m = list(deltas), first.m
    if len(deltas) < 2:
        raise UurError(f"need at least 2 operators, got {len(deltas)}")
    products = dict(zip(FLAVORS, (first.k_m, first.k_m_v, first.k_tilde_m)))
    for alpha, beta in itertools.islice(itertools.combinations(deltas, 2), 1, None):
        pair = ModulusPair.from_deltas(alpha, beta)
        k = split_bound(pair, range(1, m + 1))
        values = (k, _blend(k, variance_product(pair), first.v), best_split_bound(pair, m, cap)[0])
        for flavor, val in zip(FLAVORS, values):
            products[flavor] *= val
    return {flavor: float(p ** (1.0 / (len(deltas) - 1))) for flavor, p in products.items()}


def bound_report(pair: ModulusPair, m: int, v: float = DEFAULT_V,
                 cap: int = DEFAULT_CAP) -> BoundSet:
    """Compute every pairwise bound for one modulus pair at block size m.

    m = n is rejected: the complement block would be empty and the split
    degenerates to the plain variance product.
    """
    n = pair.dim
    if n < 2:
        raise UurError(f"bound reports need dimension >= 2, got {n}")
    if not 1 <= m <= n - 1:
        raise UurError(f"block size {m} out of range 1..{n - 1} (m = n is degenerate)")
    _check_cap(n, m, cap)
    X2, Y2 = pair.x ** 2, pair.y ** 2  # one squaring for the pass, vp and the diagonal sum
    values, block = _split_search(X2.tolist(), Y2.tolist(), range(1, n // 2 + 1), cap)
    first = values.index(max(values))  # the first largest size: the report pads only its block
    k_m, vp, terms = split_bound(pair, range(1, m + 1)), float(X2.sum() * Y2.sum()), _pow_terms(pair, X2, Y2)
    return BoundSet(
        m=m,
        v=v,
        variance_product=vp,
        lb=correlation_bound(pair),
        k_m=k_m,
        k_m_v=_blend(k_m, vp, v),
        k_tilde_m=values[min(m, n - m) - 1],
        k_tilde=values[first],
        k_tilde_argmax=block(first),
        i_d=_fine_grained(pair, *terms),
        i_1_prime=_paired_cross(pair, *terms) if n >= 3 else None,
    )
