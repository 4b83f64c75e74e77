"""Lower bounds on variance products of unitary operator pairs and tuples.

The pairwise bounds read the squares of the coordinate moduli x, y that a
ModulusPair keeps (formed once per pair), the geometric means each pair's
moduli, the triple bound the DeltaVectors. The central construction splits the
index set into a block S and its complement, applies the Cauchy-Schwarz
inequality per block, and once more across the two blocks:

    (x . y)^2  <=  (|x_S||y_S| + |x_Sc||y_Sc|)^2  <=  |x|^2 |y|^2

The middle quantity is the split bound; maximizing it over which indices
form the block gives the best split bound. A block is a sorted tuple of
1-based indices. One search over the support of (x^2, y^2) serves all the
sizes m <= n/2 a report needs: a support part and its complement give the
same value, and a free index adds exactly 0.0 to a block's sums. Either
search path (below) gives a row one record, and _block pads a size's block
from it only when asked (a report asks for its argmax's). The cap is judged
on the nominal binomial(n, m) of every size first.

The reports come in blocks of rows (bound_reports, geometric_mean_bounds; a
single report is a block of one), and the search has two paths. The per-pair
pass (_split_search) evaluates each part of at most half the support in
Python, once per row. The table pass (_split_tables) takes all rows of a
block that share a support S at once: it builds the subset sums of the x^2
and y^2 rows over all 2^|S| masks by doubling, s[1 << i : 2 << i] = s[: 1 <<
i] + t_i, which adds in _split_value's ascending order, forms each mask's
pre-square value t = sqrt(sx) sqrt(sy) + sqrt(sx_c) sqrt(sy_c), and per part
size squares with C pow only the parts whose t lies within 2^-44 of that
size's largest t (glibc's pow is within 0.54 ULP, so no other part can reach
the largest square; near underflow and overflow every part that could tie
is squared). Among the parts reaching the largest square the
lexicographically smallest wins, a NaN never wins, and every part NaN gives
the empty block, as in the per-pair pass: both give the same bits. A group
takes the table when rows x 2^|S| reaches TABLE_MIN = 256. Measured on
k dense rows (n = s = 2..9; sizes 1..n/2, k_m and the argmax block; CPU, min
of 30 rounds on a 2-core shared host), the table was slower at 4 of the 6
blocks of k 2^n = 128 (per-pair 149 us, table 197 us at n = 4, k = 8; 89
and 106 us at n = 7, k = 1) and at none of the 7 of 256 (202 and 198 us at
n = 6, k = 4; 185 and 172 us at n = 8, k = 1; 1,184 and 440 us at n = 4, k =
64). Single pairs of n <= 6, as `check` draws them, stay per pair. A table
chunk holds at most 2^TABLE_BITS masks per array: rows go in chunks, and
past that a row's high mask bits do too, in the same ascending order.

The interpolation family i_d and the paired cross bound are transcribed
comparison bounds, bit-faithful to their published term-by-term sums: each
pair's terms are formed once, and each level adds them left to right in (i,
j) order. Like the search, both skip a zero coordinate's terms: each is
+-0.0, which changes no bit of a total >= +0.0, unless an overflow makes it
inf * 0.0 = NaN.

A block of BLOCK_MIN = 8 rows or more takes its other fields in one pass over
its stacks (_block_fields: the stacked dot is x.dot(y)'s ddot per row, and
np.add.accumulate adds each row's terms left to right) and tests its chains
as arrays; a smaller block calls the single functions per row. On k dense
rows (n = 2..8; a whole bound_reports; CPU, min of 25 interleaved rounds on a
2-core shared host), per row won at k = 6 for n <= 4 (285 and 306 us at n =
2) and tied at k = 7 (339 and 344 us); at k = 8 the one pass won at every n
(373 and 356 us at n = 2, 390 and 375 us at n = 4, 678 and 549 us at n = 8).
With BLOCK_MIN = 1 a 2-row ex1 n = 16 bound_reports took 200 us, not 135, and
split_search's work_per_s fell 18%: small blocks stay per row. The geometric
means blend as arrays at every size, each row with its own v.
"""

from __future__ import annotations

import functools
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
# A group of rows sharing a support S is searched by table when rows x 2^|S| reaches TABLE_MIN (the measured
# crossover in the module docstring); a table chunk holds at most 2^TABLE_BITS masks per array (512 KB).
TABLE_MIN = 256
TABLE_BITS = 16
# The rows from which a block takes its fields and chain tests in one pass (the crossover in the module docstring).
BLOCK_MIN = 8
# A part's pre-square value t can reach its size's largest square only from within 2^-44 (relative) of the
# largest t, except near underflow (t below _TINY) and overflow (t past _HUGE).
_WINDOW, _TINY, _HUGE = 1.0 - 2.0 ** -44, 2.0 ** -500, 2.0 ** 511


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


def _pow2(t: float) -> float:
    """t ** 2 through C pow, a Python float's **, which every split value is squared with."""
    try:
        return t ** 2
    except OverflowError:  # a finite t whose square passes the largest float
        return math.inf


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
    return _pow2(math.sqrt(xs) * math.sqrt(ys) + math.sqrt(xc) * math.sqrt(yc))


def variance_product(pair: ModulusPair) -> float:
    """|x|^2 |y|^2, the quantity every bound here sits below."""
    return float(pair.squares[0].sum() * pair.squares[1].sum())


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
    return _split_value(pair.squares[0].tolist(), pair.squares[1].tolist(), frozenset(i - 1 for i in idx))


def _blend(k, vp, v):  # floats, or arrays elementwise with a float or one weight per row
    for w in v.tolist() if isinstance(v, np.ndarray) else (v,):
        if not 0.0 <= w <= 1.0:
            raise UurError(f"blend weight must lie in [0, 1], got {w}")
    return v * k + (1.0 - v) * vp


def _check_cap(n: int, m: int, cap: int) -> None:
    count = math.comb(n, m)
    if count > cap:
        raise SearchSpaceTooLarge(f"binomial({n}, {m}) = {count} subsets exceeds the cap of {cap}")


def _check_sizes(n: int, sizes, cap: int) -> None:
    for m in sizes:
        if not 1 <= m <= n:
            raise UurError(f"block size {m} out of range 1..{n}")
        _check_cap(n, m, cap)


def _spans(sizes, s: int, f: int) -> list[range]:
    """The support-part sizes a block of each size pads to, with s support and f free indices."""
    return [range(max(0, m - f), min(m, s) + 1) for m in sizes]


def _block(record, j: int, m: int) -> tuple[int, ...]:
    """The smallest block of m = sizes[j] indices reaching values[j] (1-based; -1.0: all NaN, no block): of each
    part size p of spans[j] whose best value tops[p] reaches it, part(p) sorted with the first free indices."""
    values, spans, tops, part, free = record
    smallest = min([sorted([*part(p), *free[:m - p]]) for p in spans[j] if tops[p] == values[j] > -1.0], default=())
    return tuple([i + 1 for i in smallest])


def _split_search(pair: ModulusPair, sizes, cap: int):
    """The record (values, spans, tops, part, free) of one pair's pass: each size's best value (a NaN never wins)
    and part sizes, each part size's best value and smallest part (part(p)), and the free indices."""
    n = pair.dim
    _check_sizes(n, sizes, cap)
    x2, y2 = pair.squares[0].tolist(), pair.squares[1].tolist()
    support, free = [], []
    for i in range(n):
        (support if x2[i] or y2[i] else free).append(i)
    s, f = len(support), len(free)
    spans = _spans(sizes, s, f)
    tops, parts = [-1.0] * (s + 1), [()] * (s + 1)  # per part size: the best value and its smallest part
    lo, hi = spans[0].start, spans[-1].stop - 1  # part sizes the (consecutive) sizes use
    for r in range(min(lo, s - hi), min(hi, s - lo, s // 2) + 1):
        top, first, last = -1.0, (), ()
        half = math.comb(s - 1, r - 1) if 2 * r == s > 0 else None
        for part in itertools.islice(itertools.combinations(support, r), half):
            val = _split_value(x2, y2, frozenset(part))
            if val > top:
                top, first, last = val, part, part
            elif val == top:  # complements come in reverse order: the last is the smallest
                last = part
        tops[r], parts[r] = top, first
        if 2 * r < s and s - r <= hi:  # the complements' size is asked for
            tops[s - r], parts[s - r] = top, [i for i in support if i not in last]
    return [max(tops[span.start:span.stop]) for span in spans], spans, tops, parts.__getitem__, free


@functools.cache
def _lex_masks(bits: int) -> tuple[np.ndarray, ...]:
    """(order, starts, segment, rev) of the masks of `bits` support positions (bit i: position i). order lists
    the masks by part size, then by part, lexicographically smallest first; part size p begins at
    order[starts[p]], and segment[c] is the part size of order[c]. rev reverses a mask's bits: of two parts of
    one size, the one with the larger rev is the smaller."""
    rev, count = np.zeros(1 << bits, dtype=np.int64), np.zeros(1 << bits, dtype=np.int64)
    for i in range(bits):
        rev[1 << i:2 << i] = rev[:1 << i] | 1 << (bits - 1 - i)
        count[1 << i:2 << i] = count[:1 << i] + 1
    order = np.lexsort((-rev, count))
    return order, np.searchsorted(count[order], np.arange(bits + 1)), count[order], rev


def _subset_sums(v: np.ndarray) -> np.ndarray:
    """(..., 2^b): each mask's sum of the entries of v (..., b) it holds, added from 0.0 in ascending position
    order, as _split_value adds a block: a mask whose highest bit is i is the mask without it, plus entry i."""
    sums = np.zeros((*v.shape[:-1], 1 << v.shape[-1]))
    for i in range(v.shape[-1]):
        np.add(sums[..., :1 << i], v[..., i, None], out=sums[..., 1 << i:2 << i])
    return sums


def _pow2s(t: np.ndarray) -> np.ndarray:
    """_pow2 of each float of t, in t's shape."""
    values = t.ravel().tolist()
    try:
        return np.array([v ** 2 for v in values], dtype=float).reshape(t.shape)
    except OverflowError:
        return np.array([_pow2(v) for v in values], dtype=float).reshape(t.shape)


@np.errstate(over="ignore", invalid="ignore")  # inf sums and inf * 0.0 = NaN, as the Python floats give
def _table_pass(x2: np.ndarray, y2: np.ndarray, lead: int, needed: np.ndarray):
    """The subset-sum tables of rows sharing one support, its squares x2, y2 (k, s) in ascending position order.

    Returns (best, win, lead_t). For each part size p that needed marks, best[r, p] is the largest C-pow
    square of a part of p support positions (-1.0 when every such part is NaN) and win[r, p] the
    lexicographically smallest part reaching it, as a mask; lead_t[r] is the pre-square value of the part of
    the first `lead` positions. A chunk holds at most 2^TABLE_BITS masks of its rows: the rows go in chunks,
    and past that a row's high mask bits do too, each chunk adding its high positions to the low table in
    ascending order, the same sums.
    """
    k, s = x2.shape
    low = min(s, TABLE_BITS)
    high = s - low
    order, starts, segment, rev = _lex_masks(low)
    best, win, key = np.full((k, s + 1), -1.0), np.zeros((k, s + 1), np.int64), np.zeros((k, s + 1), np.int64)
    lead_t, lead_mask = np.empty(k), (1 << lead) - 1
    window = np.where(needed, _WINDOW, np.nan)  # NaN: no part of a size no caller reads is squared
    per = 1 << (TABLE_BITS - low)
    for r0 in range(0, k, per):
        v = np.stack((x2[r0:r0 + per], y2[r0:r0 + per]))
        sums = _subset_sums(v[..., :low])

        def products(c: int) -> np.ndarray:  # sqrt(sx) sqrt(sy) of the masks (c << low) | lo
            chunk = sums
            for j in range(high):
                if c >> j & 1:
                    chunk = chunk + v[..., low + j, None]
            root = np.sqrt(chunk)
            return root[0] * root[1]

        for h in range(1 << max(0, high - 1)):  # h and its complement hc: t of hc's masks is t of h's reversed
            hc = h ^ ((1 << high) - 1)
            t = products(h) + products(hc)[:, ::-1]  # a mask's own term first, as in _split_value
            for c, tc in ((h, t), (hc, t[:, ::-1]))[:1 + (high > 0)]:
                if c == lead_mask >> low:
                    lead_t[r0:r0 + per] = tc[:, lead_mask & ((1 << low) - 1)]
                p0, T = c.bit_count(), tc[:, order]
                top = np.fmax.reduceat(T, starts, axis=1)  # NaN only where every part is NaN
                # Only a part within a few ULP of its size's largest t can reach that size's largest
                # square (glibc's pow is within 0.54 ULP); below 2^-500 a square may be subnormal or 0.0
                # and past 2^511 it may overflow, so there every part that could tie it is kept.
                floor = np.minimum(top * window[p0:p0 + low + 1], _HUGE)
                floor[top < _TINY] = 0.0
                r_i, c_i = np.nonzero(T >= floor[:, segment])
                squares, seg = _pow2s(T[r_i, c_i]), segment[c_i]
                group = r_i * (low + 1) + seg  # (row, part size), non-decreasing; parts in order within each
                if len(group) > 1 and not (group[1:] != group[:-1]).all():  # keep each group's first largest
                    new = np.diff(group, prepend=-1) != 0
                    index = np.cumsum(new) - 1
                    won = np.flatnonzero(squares == np.maximum.reduceat(squares, np.flatnonzero(new))[index])
                    won = won[np.diff(index[won], prepend=-1) != 0]
                    r_i, c_i, seg, squares = r_i[won], c_i[won], seg[won], squares[won]
                rows, parts, masks = r_i + r0, seg + p0, c << low | order[c_i]
                if high:  # a part of the same size may lie in another chunk: the larger square, then the smaller part
                    rank = rev[order[c_i]] << high | int(f"{c:0{high}b}"[::-1], 2)
                    take = (squares > best[rows, parts]) | (squares == best[rows, parts]) & (rank > key[rows, parts])
                    rows, parts, masks, squares = rows[take], parts[take], masks[take], squares[take]
                    key[rows, parts] = rank[take]
                best[rows, parts], win[rows, parts] = squares, masks
    return best, win, lead_t


def _split_tables(X2: np.ndarray, Y2: np.ndarray, groups, sizes, m: int):
    """(row, (values, k_m, record)) for each row of each group (rows, support) of the stacks X2, Y2 (k, n): as
    _searches gives them, k_m the split value of the leading block of m from the same table."""
    n = X2.shape[1]
    for rows, support in groups:
        s, index = support.size, support.tolist()
        free = [i for i in range(n) if i not in index]
        spans = _spans(sizes, s, len(free))
        needed = np.zeros(s + 1, dtype=bool)
        needed[spans[0].start:spans[-1].stop] = True  # the part sizes the (consecutive) sizes use
        cols = np.ix_(rows, support)
        best, win, lead_t = _table_pass(X2[cols], Y2[cols], int(support.searchsorted(m)), needed)
        values = np.column_stack([best[:, span].max(axis=1) for span in spans]).tolist()
        for r, vals, tops, masks, t in zip(rows, values, best.tolist(), win.tolist(), lead_t.tolist()):
            yield r, (vals, _pow2(t), (vals, spans, tops, lambda p, masks=masks, index=index: [
                i for b, i in enumerate(index) if masks[p] >> b & 1], free))


def _searches(X: np.ndarray, Y: np.ndarray, X2: np.ndarray, Y2: np.ndarray, sizes, m: int, cap: int):
    """Per row of a block: (each size's best value, split_bound of the leading block of m, its record for _block).

    The rows that share a support S are searched by one table pass when rows x 2^|S| reaches TABLE_MIN,
    and every other row by its own pass (_split_search and split_bound) on its pair, built from the stacks.
    Every size's cap is judged before the first part of either.
    """
    k, n = X2.shape
    tabled, inside = [], X2 + Y2 != 0 if k << n >= TABLE_MIN else None  # a sum of squares is 0 where both are
    if inside is not None and k << min(n, np.count_nonzero(inside)) >= TABLE_MIN:  # else no group reaches it
        groups = {}
        for r, key in enumerate(map(bytes, np.packbits(inside, axis=1))):
            groups.setdefault(key, []).append(r)
        tabled = [(rows, np.flatnonzero(inside[rows[0]])) for rows in groups.values()
                  if len(rows) << int(inside[rows[0]].sum()) >= TABLE_MIN]
    found = {}
    if tabled:
        _check_sizes(n, sizes, cap)  # a row's own pass checks them too, before its first part
        found = dict(_split_tables(X2, Y2, tabled, sizes, m))
    for r in range(k):
        if r not in found:
            pair = ModulusPair.unchecked(X[r], Y[r], (X2[r], Y2[r]))
            record = _split_search(pair, sizes, cap)
            found[r] = record[0], split_bound(pair, range(1, m + 1)), record
    return [found[r] for r in range(k)]


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
    record = _split_search(pair, [m], cap)
    return record[0][0], _block(record, 0, m)


def best_split_bounds(pair: ModulusPair, cap: int = DEFAULT_CAP) -> list[tuple[float, tuple[int, ...]]]:
    """best_split_bound's (value, block) for each block size m = 1 .. floor(n/2), in order,
    from one pass (size n - m would repeat size m); every size's nominal binomial(n, m) is
    capped first."""
    record = _split_search(pair, range(1, max(1, pair.dim // 2) + 1), cap)
    return [(value, _block(record, j, j + 1)) for j, value in enumerate(record[0])]


def fine_grained_sequence(pair: ModulusPair) -> tuple[float, ...]:
    """All levels 1..n of the interpolation family, non-increasing in the level.

    Level 1 is |x|^2 |y|^2, level n is (x . y)^2; at level d a pair i < j
    (1-based) enters as 2 x_i y_i x_j y_j if j <= d, else x_i^2 y_j^2 + x_j^2 y_i^2.
    Each pair's terms are formed once; each level adds them with +=, left to
    right in (i, j) order: the per-level sum's floats in its order, bit for bit.
    np.sum (pairwise), math.fsum (exact) and sum (compensated from 3.12) move
    bits, as does x * x (numpy's x ** 2, ModulusPair.squares) in place of C
    pow (~1 draw in 1,000). Only pairs inside S = {i : x_i != 0 or y_i != 0}
    are formed, and a sum only at level 0 and at each such pair's j; any other
    level repeats the one before (the same floats in the same order). While
    the diagonal sum of x_i^2 y_i^2 is not finite, S is every index: an inf
    square or 2 x_i y_i times a zero is NaN.
    """
    n, (x2, y2, diagonal) = pair.dim, pair.pow_terms
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
    n = pair.dim
    if n < 3:
        raise UurError(f"paired cross bound needs dimension >= 3, got {n}")
    x, y, (x2, y2, total) = pair.x, pair.y, pair.pow_terms
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


def _check_report(n: int, m: int, cap: int) -> None:
    if n < 2:
        raise UurError(f"bound reports need dimension >= 2, got {n}")
    if not 1 <= m <= n - 1:
        raise UurError(f"block size {m} out of range 1..{n - 1} (m = n is degenerate)")
    _check_cap(n, m, cap)  # then the search's sizes 1..n/2, before any part


@functools.lru_cache(maxsize=256)  # bounded: each support a block brings adds an entry
def _family_index(n: int, support: tuple[int, ...]):
    """fine_grained_sequence's pairs i < j of support in (i, j) order, whether each level it sums (0, then each
    support index but the first) takes a pair's cross term, and how often each such level repeats in 1..n."""
    index, (a, b) = np.array(support, dtype=np.intp), np.triu_indices(len(support), 1)
    levels = np.array([0, *support[1:]], dtype=np.intp)
    return index[a], index[b], index[b] <= levels[:, None], np.diff([*levels, n])


@functools.lru_cache(maxsize=256)  # bounded: each support a block brings adds an entry
def _cross_index(xs: tuple[int, ...], ys: tuple[int, ...]):
    """(i, j) of paired_cross_bound's x_i^2 y_j^2 terms in its order: j of ys outer, i of xs inner, i != j."""
    return np.array([(i, j) for j in ys for i in xs if i != j], dtype=np.intp).reshape(-1, 2).T


def _sums(first: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """first (k, ...) + each term along the last axis of terms, left to right as += adds (np.sum adds pairwise)."""
    first = np.broadcast_to(first[..., None], (*terms.shape[:-1], 1))
    return np.add.accumulate(np.concatenate((first, terms), axis=-1), axis=-1)[..., -1]


@np.errstate(over="ignore", invalid="ignore")  # inf terms and inf * 0.0 = NaN, as the Python floats give them
def _block_fields(X: np.ndarray, Y: np.ndarray, X2: np.ndarray, Y2: np.ndarray):
    """(variance_product, correlation_bound, fine_grained_sequence (k, n), paired_cross_bound or None below n = 3)
    of each row of the moduli stacks X, Y (k, n) and their numpy squares X2, Y2, with the single functions' bits.
    While every diagonal sum is finite, a term only another row's support adds is +0.0 in this row."""
    n = X.shape[1]
    px, py = _pow2s(X), _pow2s(Y)
    diagonal = (X2 * Y2).sum(axis=1)
    every = not np.isfinite(diagonal).all()
    support = range(n) if every else np.flatnonzero((X + Y).any(axis=0)).tolist()
    i, j, crossed, repeats = _family_index(n, tuple(support))
    terms = np.where(crossed, (2.0 * X[:, i] * Y[:, i] * X[:, j] * Y[:, j])[:, None],
                     (px[:, i] * py[:, j] + px[:, j] * py[:, i])[:, None])
    family = np.repeat(_sums(diagonal[:, None], terms), repeats, axis=1)
    cross = None
    if n >= 3:
        xs, ys = (range(n), range(1, n)) if every else (
            np.flatnonzero(px.any(axis=0)).tolist(), (np.flatnonzero(py[:, 1:].any(axis=0)) + 1).tolist())
        i, j = _cross_index(tuple(xs), tuple(ys))
        cross = (_sums(diagonal, px[:, i] * py[:, j]) + py[:, 0] * X2[:, 3:].sum(axis=1)
                 + 2.0 * py[:, 0] * X[:, 1] * X[:, 2])
    return X2.sum(axis=1) * Y2.sum(axis=1), _pow2s((X[:, None, :] @ Y[:, :, None])[:, 0, 0]), family, cross


def _means(stacks: list[np.ndarray], squares: list[np.ndarray], firsts, cap: int) -> list[dict[str, float]]:
    m, ell = firsts[0].m, len(stacks)
    if any(first.m != m for first in firsts):
        raise UurError("the reports of one block must share one block size m")
    v = np.array([first.v for first in firsts], dtype=float)  # each row blends with its own weight
    products = [[first.k_m, first.k_m_v, first.k_tilde_m] for first in firsts]  # per row, one per flavor
    for a, b in itertools.islice(itertools.combinations(range(ell), 2), 1, None):
        found = _searches(stacks[a], stacks[b], squares[a], squares[b], [m], m, cap)
        k_m = np.array([k_m for _, k_m, _ in found])
        k_m_v = _blend(k_m, squares[a].sum(axis=1) * squares[b].sum(axis=1), v)
        factors = zip(k_m.tolist(), k_m_v.tolist(), [values[0] for values, _, _ in found])
        products = [[p * f for p, f in zip(product, factor)] for product, factor in zip(products, factors)]
    return [{flavor: float(p ** (1.0 / (ell - 1))) for flavor, p in zip(FLAVORS, product)} for product in products]


def geometric_mean_bounds(moduli, firsts, cap: int = DEFAULT_CAP, squares=None) -> list[dict[str, float]]:
    """geometric_mean_bound for each row of l moduli stacks (k, n) (delta_stack's, one per operator) and
    firsts, the k reports of stacks 0 and 1 (one m). The stacks are checked by one test for the block, read in C
    order, and squared once each unless squares holds numpy's squares of each (as bound_reports takes them)."""
    if len(moduli) < 2:
        raise UurError(f"need at least 2 operators, got {len(moduli)}")
    stacks = [np.ascontiguousarray(s) for s in ModulusPair.checked_stacks(*moduli)]
    squares = [np.ascontiguousarray(q) for q in squares] if squares else [s ** 2 for s in stacks]
    return _means(stacks, squares, firsts, cap)


def geometric_mean_bound(moduli, first: BoundSet, cap: int = DEFAULT_CAP) -> dict[str, float]:
    """Multi-operator bounds: geometric means of the pairwise split bounds.

    Takes the moduli of l operators' delta vectors on one state (delta_stack's rows, or each np.abs(entries)),
    checked once, and first, the bound_report of moduli[0] and moduli[1], whose m and v every pair uses.
    Per pair, "plain" is the split bound on the leading block of size m,
    "convex" its blend with weight v, "tilde" the best split of size m (first's
    k_m, k_m_v, k_tilde_m); each flavor's product over the pairs is raised to 1/(l-1).
    A block of one row of geometric_mean_bounds.
    """
    moduli = list(moduli)
    if len(moduli) < 2:
        raise UurError(f"need at least 2 operators, got {len(moduli)}")
    stacks = [row[None] for row in ModulusPair.checked(*moduli)]
    return _means(stacks, [s ** 2 for s in stacks], [first], cap)[0]


def _chains_hold(lb, k_m, k_m_v, vp, k_tilde_m, k_tilde, family: np.ndarray) -> np.ndarray:
    """Per row of a block's field arrays, whether BoundSet.validate would find its chains whole."""
    with np.errstate(invalid="ignore"):  # inf - inf
        return ((lb <= k_m + SLACK) & (k_m <= k_m_v + SLACK) & (k_m_v <= vp + SLACK) & (k_m <= k_tilde_m + SLACK)
                & (k_tilde_m <= k_tilde + SLACK) & (k_tilde <= vp + SLACK)
                & (family[:, 1:] <= family[:, :-1] + SLACK).all(axis=1)
                & ~(abs(family[:, 0] - vp) > SLACK) & ~(abs(family[:, -1] - lb) > SLACK))


def _reports(X: np.ndarray, Y: np.ndarray, X2: np.ndarray, Y2: np.ndarray, m: int, v: float,
             cap: int) -> tuple[list[BoundSet], np.ndarray | None]:
    """The reports of a block, and for a block of BLOCK_MIN rows or more whether each row's chains hold."""
    k, n = X2.shape
    found, hold = _searches(X, Y, X2, Y2, range(1, n // 2 + 1), m, cap), None
    if k < BLOCK_MIN:  # the single-pair functions, row by row
        fields = [(vp := variance_product(pair), correlation_bound(pair), _blend(k_m, vp, v),
                   fine_grained_sequence(pair), paired_cross_bound(pair) if n >= 3 else None)
                  for pair, (_, k_m, _) in zip(map(ModulusPair.unchecked, X, Y, zip(X2, Y2)), found)]
    else:
        vp, lb, family, cross = _block_fields(X, Y, X2, Y2)
        values, k_m = np.array([values for values, _, _ in found]), np.array([k_m for _, k_m, _ in found])
        k_m_v = _blend(k_m, vp, v)
        hold = _chains_hold(lb, k_m, k_m_v, vp, values[:, min(m, n - m) - 1], values.max(axis=1), family)
        fields = zip(vp.tolist(), lb.tolist(), k_m_v.tolist(), map(tuple, family.tolist()),
                     [None] * k if cross is None else cross.tolist())
    reports = []
    for (values, k_m, record), (vp, lb, k_m_v, i_d, i_1_prime) in zip(found, fields):
        first = values.index(max(values))  # the first largest size: the report pads only its block
        reports.append(BoundSet(m, v, vp, lb, k_m, k_m_v, values[min(m, n - m) - 1], values[first],
                                _block(record, first, first + 1), i_d, i_1_prime))  # in BoundSet's order
    return reports, hold


def bound_reports(X: np.ndarray, Y: np.ndarray, m: int, v: float = DEFAULT_V, cap: int = DEFAULT_CAP,
                  squares=None) -> tuple[list[BoundSet], list[int]]:
    """bound_report for each row pair of the float moduli stacks X, Y (k, n), which delta_stack's finiteness
    test or ModulusPair.checked_stacks has passed (like ModulusPair.unchecked's rows), and the indices of the
    reports whose chains are broken (validate is not empty). The stacks are read in C order and squared once
    each, unless squares holds numpy's (X ** 2, Y ** 2); the split search runs per support group by table or per
    row (_searches), and a block of BLOCK_MIN rows or more takes the other fields in one pass (_block_fields)."""
    _check_report(X.shape[1], m, cap)
    X, Y, X2, Y2 = (np.ascontiguousarray(q) for q in (X, Y, *(squares or (X ** 2, Y ** 2))))
    reports, hold = _reports(X, Y, X2, Y2, m, v, cap)
    if hold is None:
        return reports, [r for r, report in enumerate(reports) if report.validate()]
    return reports, np.flatnonzero(~hold).tolist()


def bound_report(pair: ModulusPair, m: int, v: float = DEFAULT_V,
                 cap: int = DEFAULT_CAP) -> BoundSet:
    """Compute every pairwise bound for one modulus pair at block size m: a block of one row of bound_reports.

    m = n is rejected: the complement block would be empty and the split
    degenerates to the plain variance product.
    """
    _check_report(pair.dim, m, cap)
    X2, Y2 = pair.squares
    return _reports(pair.x[None], pair.y[None], X2[None], Y2[None], m, v, cap)[0][0]

