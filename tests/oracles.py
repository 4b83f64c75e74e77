"""Test-side oracles and one-line helpers over the package's own kernels.

The ex1 closed forms are a reference the tests compare the numeric pipeline
against; the program never calls them. The per-matrix sampler is the one
`check` drew its instances with before it made its unitaries in stacks; it
is the bit-for-bit reference for the stacked draw, and the tests draw their
single unitaries with its `random_unitary`. The per-size split search
is the one `bounds` ran before one pass served every block size; it is the
bit-for-bit reference for that pass. The purification through a Hermitian
eigensolver and a PSD square root is the one `moments.purify` ran before a
`DensityMatrix` kept its eigendecomposition; it is the bit-for-bit
reference for the purification from that decomposition, and that one-matrix
purification is the reference for the stacked one. The per-angle state
families are the ones the scenarios built before a block's states came from
one formula over its angles; they are the references of the stacked
families. The per-item delta-vector forms are the ones the package ran
before `moments.delta_stack` formed every delta vector; they are its
bit-for-bit references, and the tests name a single state's moments with
them; the per-row triple bound is the reference of the stacked one. The
helpers name one value of a public function so the tests read like
the quantities they check, and `run_suite` runs one `check` suite alone
through the sampler `run_all` uses.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from uur import bounds, linalg, moments, sampling, selfcheck
from uur.errors import UurError
from uur.moments import DeltaVector, DensityMatrix, ModulusPair, PureState, Unitary


@dataclass(frozen=True)
class Example1Reference:
    """Closed-form values for the ex1 family at one angle.

    Transcribed slot by slot: x_1, x_d and y_1, y_2, y_d are set in that
    order, so at d = 2 the y_2 and y_d slots collide and the later one wins.
    The comparison tests itemize where these forms drift from the numeric
    pipeline instead of silently reconciling them.
    """

    d: int
    theta: float
    x: np.ndarray
    y: np.ndarray
    i_1: float
    i_2: float
    i_d: float
    i_1_prime: float


def example1_reference(d: int, theta: float) -> Example1Reference:
    """Evaluate the ex1 closed forms at one angle."""
    if d < 2:
        raise UurError(f"reference values need dimension >= 2, got {d}")
    s, co = math.sin(theta), math.cos(theta)
    w = abs(1.0 - np.exp(-2j * np.pi / d))
    x = np.zeros(d)
    y = np.zeros(d)
    x[0] = w * abs(s * s * co)
    x[d - 1] = w * abs(s * co * co)
    y[0] = abs(s) ** 3
    y[1] = abs(co)
    y[d - 1] = abs(s * s * co)
    w2 = w * w
    return Example1Reference(
        d=d, theta=theta, x=x, y=y,
        i_1=w2 * abs(s ** 6 * co ** 2 + s ** 2 * co ** 4),
        i_2=w2 * abs(s ** 6 * co ** 2 + s ** 2 * co ** 6),
        i_d=w2 * abs(s ** 6 * co ** 2),
        i_1_prime=w2 * abs(s ** 8 * co ** 2 + s ** 6 * co ** 6 + s ** 2 * co ** 4),
    )


def split_bound_blend(pair, subset, v: float) -> float:
    """Convex blend v*split + (1-v)*variance_product, through the program's own _blend."""
    return bounds._blend(bounds.split_bound(pair, subset), bounds.variance_product(pair), v)


def fine_grained_level(pair, level: int) -> float:
    """Level `level` (1-based) of the interpolation family."""
    return bounds.fine_grained_sequence(pair)[level - 1]


# The per-item delta-vector forms, verbatim but for from_deltas, which was a
# ModulusPair classmethod: one operator on one state at a time, a raw matrix
# checked by Unitary on every call.
def delta_vector(A, psi: PureState) -> DeltaVector:
    """Coordinates of (A - <A>)|psi> in the computational basis."""
    image = Unitary.matrix_on(A, psi.dim) @ psi.amplitudes
    mean = complex(np.vdot(psi.amplitudes, image))
    return DeltaVector(entries=image - mean * psi.amplitudes, mean=mean)


def from_deltas(alpha: DeltaVector, beta: DeltaVector) -> ModulusPair:
    """The moduli of two delta vectors on a shared state."""
    return ModulusPair(x=np.abs(alpha.entries), y=np.abs(beta.entries))


def modulus_pair(A, B, psi: PureState) -> ModulusPair:
    """Coordinate moduli x, y of the two delta vectors on a shared state."""
    return from_deltas(delta_vector(A, psi), delta_vector(B, psi))


def correlation(A, B, psi: PureState) -> complex:
    """<A^dagger B> - <A^dagger><B>, the cross term of the pair.

    Computed as the inner product of the two delta coordinate vectors,
    which equals the operator form identically.
    """
    return delta_vector(A, psi).correlation(delta_vector(B, psi))


def variance_pure(A, psi: PureState) -> float:
    """Variance <dA^dagger dA> of a unitary operator on a pure state."""
    return delta_vector(A, psi).variance


def triple_bound(dA: DeltaVector, dB: DeltaVector, dC: DeltaVector) -> tuple[float, float]:
    """(variance_triple, bong3) of three delta vectors as the CLI formed them row by row before
    bounds.triple_correlation_bounds: Python and numpy scalars, with +inf where abs or ** raises
    OverflowError."""
    def abs2(c: complex) -> float:
        try:
            return abs(c) ** 2
        except OverflowError:
            return math.inf

    vA, vB, vC = dA.variance, dB.variance, dC.variance
    cAB, cAC, cBC = dA.correlation(dB), dA.correlation(dC), dB.correlation(dC)
    with np.errstate(all="ignore"):  # numpy's scalar complex multiply warns where it overflows
        return math.prod((vA, vB, vC)), float(
            vA * abs2(cBC) + vB * abs2(cAC) + vC * abs2(cAB) - 2.0 * (cAC * np.conj(cBC) * np.conj(cAB)).real)


# The per-angle state families, verbatim but for ex4's purify (the
# one-matrix form, purify_one below): one PureState per angle, its norm
# checked on construction. They are the bit-for-bit references of the
# stacked families that scenarios.Scenario.state builds per block.
def _ex1_state(d: int):
    def build(theta: float) -> PureState:
        a = np.zeros(d, dtype=complex)
        a[0] = math.cos(theta)
        a[d - 1] = -math.sin(theta)
        return PureState(amplitudes=a)

    return build


def _ex2_state(d: int):
    def build(theta: float) -> PureState:
        a = np.full(d, math.cos(theta) / math.sqrt(d - 1), dtype=complex)
        a[d - 1] = -math.sin(theta)
        return PureState(amplitudes=a)

    return build


def _ex3_state(theta: float) -> PureState:
    h = math.sqrt(2) / 2
    return PureState(amplitudes=np.array(
        [h * math.cos(theta), h * math.cos(theta), math.sin(theta)], dtype=complex))


def _ex4_state(theta: float) -> PureState:
    r = (1.0 / 3.0, 2.0 / 3.0 * math.cos(theta), 2.0 / 3.0 * math.sin(theta))
    return purify_one(moments.bloch_density(r))


def _ex5_state(theta: float) -> PureState:
    return PureState(amplitudes=np.array([
        0.5 * math.cos(theta / 2),
        math.sqrt(3) / 2 * math.sin(theta / 2),
        0.5 * math.sin(theta / 2),
        math.sqrt(3) / 2 * math.cos(theta / 2),
    ], dtype=complex))


def _ex6_state(theta: float) -> PureState:
    h = math.sqrt(2) / 2
    raw = np.array([h * math.cos(theta / 2), h * math.sin(theta / 2),
                    -math.sin(theta / 2)], dtype=complex)
    return PureState.normalized(raw)


def reference_state(scen, theta: float) -> PureState:
    """The per-angle reference state of the built-in scenario scen at theta."""
    if scen.id in ("ex1", "ex2"):
        return (_ex1_state if scen.id == "ex1" else _ex2_state)(scen.dimension)(theta)
    return {"ex3": _ex3_state, "ex4": _ex4_state, "ex5": _ex5_state, "ex6": _ex6_state}[scen.id](theta)


def state_at(scen, theta: float) -> PureState:
    """The scenario's state at one angle: row 0 of its stack of one."""
    return PureState(scen.state([theta])[0])


def purified(rho: DensityMatrix) -> PureState:
    """moments.purify of one density, as a stack of one."""
    return PureState(moments.purify([a[None] for a in rho.eig])[0])


# The one-matrix purification, verbatim but for its name: sqrt(rho) from the
# decomposition the DensityMatrix kept, vectorised and normalised alone.
def purify_one(rho: DensityMatrix) -> PureState:
    """Spectral purification: the unit vector vec(sqrt(rho)) on C^n (x) C^n."""
    w, V = rho.eig  # eigenvalues in [-TOL, 0) are rounding debris, clamped to zero
    v = linalg.vec((V * np.sqrt(w.clip(0.0, None))) @ V.conj().T)
    return PureState.normalized(v)


# The per-matrix sampler, verbatim: each unitary has its own QR.
def _complex_gaussian(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-style random unitary via QR with phase-fixed diagonal."""
    Q, R = np.linalg.qr(_complex_gaussian(rng, n, n))
    diag = np.diag(R)
    return Q * (diag / np.abs(diag))


def random_state(rng: np.random.Generator, n: int) -> PureState:
    """Normalized complex Gaussian vector."""
    v = _complex_gaussian(rng, n)
    return PureState(amplitudes=v / np.linalg.norm(v))


def random_density(rng: np.random.Generator, n: int) -> DensityMatrix:
    """Full-rank-ish random mixed state from a normalized Wishart draw."""
    Z = _complex_gaussian(rng, n, n)
    M = Z @ Z.conj().T
    return DensityMatrix(matrix=M / np.real(np.trace(M)))


def run_suite(name: str, seed: int, trials: int) -> selfcheck.SuiteResult:
    """The result of the registered suite `name` over trials 0..trials-1, run alone on `check`'s sampler."""
    spec = next(spec for spec in selfcheck._SPECS if spec.name == name)
    return selfcheck._run(seed, [(spec, trials)])[0]


def sampled_items(seed: int, trials: int, stream: int, draw) -> list:
    """Every (trial, unitaries, rest) that a suite drawing with draw from stream checks, run alone."""
    items = []
    probe = selfcheck._Spec("probe", stream, draw, lambda seed, trials: (), math.inf,
                            lambda rec, block: items.extend(block))
    selfcheck._run(seed, [(probe, trials)])
    return items


def per_matrix_instance(seed: int, trial: int, stream: int, count: int, d: int):
    """count unitaries, then one state, drawn one matrix at a time as `check` once drew them."""
    rng = sampling.trial_generator(seed, trial, stream)
    ops = [random_unitary(rng, d) for _ in range(count)]
    psi = random_state(rng, d)
    return ops, psi


# The per-size split search, verbatim: each block size enumerates its own
# support parts, padded with the smallest free indices.
def _squares(pair) -> tuple[list[float], list[float]]:
    return (pair.x ** 2).tolist(), (pair.y ** 2).tolist()


def _split_value(x2: list[float], y2: list[float], inside: frozenset[int]) -> float:
    xs = ys = xc = yc = 0.0
    for i in range(len(x2)):
        if i in inside:
            xs += x2[i]
            ys += y2[i]
        else:
            xc += x2[i]
            yc += y2[i]
    return (math.sqrt(xs) * math.sqrt(ys) + math.sqrt(xc) * math.sqrt(yc)) ** 2


def per_size_split_bound(pair, m: int, cap: int = bounds.DEFAULT_CAP):
    """Maximum split bound over the blocks of size m, searched for this size alone."""
    n = pair.dim
    if not 1 <= m <= n:
        raise UurError(f"block size {m} out of range 1..{n}")
    bounds._check_cap(n, m, cap)
    x2, y2 = _squares(pair)
    free = [i for i in range(n) if x2[i] == y2[i] == 0.0]
    support = [i for i in range(n) if x2[i] or y2[i]]
    stop = math.comb(n - 1, m - 1) if 2 * m == n else None
    best, best_subset = -1.0, ()
    for t in range(max(0, m - len(free)), min(m, len(support)) + 1):
        pad = tuple(free[:m - t])
        for part in itertools.islice(itertools.combinations(support, t), stop):
            combo = tuple(sorted(part + pad)) if pad else part
            val = _split_value(x2, y2, frozenset(combo))
            if val > best or val == best and combo < best_subset:
                best, best_subset = val, combo
    return best, tuple(i + 1 for i in best_subset)


# The purification, verbatim but for the `linalg.` prefixes and its errors,
# which were the NotHermitian, NoConvergence and NotPSD subclasses of
# UurError: the state is checked and diagonalised a second time, then
# square-rooted with debris clamped to zero.
def hermitian_eig(M):
    """numpy's EighResult (eigenvalues ascending, eigenvectors) of a Hermitian matrix."""
    A = linalg.as_square_matrix(M)
    dev = np.max(np.abs(A - A.conj().T))
    if dev > linalg.TOL:
        raise UurError(f"matrix deviates from Hermitian by {dev:.3e} (tol {linalg.TOL:.1e})")
    try:
        return np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise UurError(f"eigensolver failed to converge: {exc}") from exc


def psd_sqrt(M) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues in [-TOL, 0) are rounding debris and are clamped to zero;
    anything more negative is a genuine violation and raises.
    """
    w, V = hermitian_eig(M)
    if np.min(w) < -linalg.TOL:
        raise UurError(f"matrix has eigenvalue {np.min(w):.3e} < {-linalg.TOL:g}")
    return (V * np.sqrt(np.clip(w, 0.0, None))) @ V.conj().T


def two_pass_purify(rho: DensityMatrix) -> PureState:
    """vec(sqrt(rho)), normalized, with sqrt(rho) from psd_sqrt."""
    root = psd_sqrt(rho.matrix)
    v = linalg.vec(root)
    return PureState(amplitudes=v / np.linalg.norm(v))
