"""Expectation values, delta coordinate vectors, variances, Gram matrices, purification.

The variance convention throughout is the one natural for unitary operators:
with dA = A - <A>, the variance is <dA^dagger dA> = 1 - |<A>|^2 on pure
states and 1 - |Tr(A rho)|^2 on mixed ones. The coordinate vector of dA|psi>
in the computational basis drives every bound downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import UurError

sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
sigma_y = np.array([[0, -1j], [1j, 0]], dtype=complex)
sigma_z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class PureState:
    """Unit-norm complex amplitude vector, kept C-contiguous (BLAS rounds a strided one differently)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.ascontiguousarray(np.asarray(self.amplitudes, dtype=complex).reshape(-1))
        with np.errstate(over="ignore"):  # a huge amplitude reads as norm inf
            nrm = linalg.vector_norm(a)
        if not abs(nrm - 1.0) <= linalg.TOL:  # a finite norm has finite terms: scan only past here
            raise UurError("state amplitudes must be finite" if not np.isfinite(a).all() else
                           f"state norm {nrm!r} deviates from 1 by more than {linalg.TOL:g}")
        object.__setattr__(self, "amplitudes", a)

    @classmethod
    def normalized(cls, v: np.ndarray) -> "PureState":
        """The state v / |v| of a nonzero complex vector v."""
        return cls(amplitudes=v / linalg.vector_norm(v))

    @classmethod
    def stack(cls, P) -> list["PureState"]:
        """A PureState per row of the complex stack P (k, n), made C-contiguous and checked by one norm test;
        a row it fails (a NaN norm too) is refused by PureState(row), which measures the row's own norm."""
        P = np.ascontiguousarray(P, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):  # a huge amplitude reads as norm inf
            for row in P[~(np.abs(np.sqrt((P.view(float) ** 2).sum(axis=1)) - 1.0) <= linalg.TOL)]:
                cls(row)
        return [vars(s := object.__new__(cls)).update(amplitudes=a) or s for a in P]  # no __post_init__

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive semidefinite matrix.

    eig is numpy's EighResult of the matrix (eigenvalues ascending), kept
    from the positivity check so that no caller diagonalises it again.
    """

    matrix: np.ndarray
    eig: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        M = linalg.as_square_matrix(self.matrix)
        tol = linalg.TOL
        if np.abs(M - M.conj().T).max() > tol:
            raise UurError(f"density matrix is not Hermitian to {tol:g}")
        tr = complex(M.trace())
        if abs(tr - 1.0) > tol:
            raise UurError(f"trace {tr!r} deviates from 1 by more than {tol:g}")
        eig = np.linalg.eigh(M)
        if eig.eigenvalues[0] < -tol:
            raise UurError(f"density matrix has an eigenvalue below {-tol:g}")
        object.__setattr__(self, "matrix", M)
        object.__setattr__(self, "eig", eig)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Unitary:
    """A finite square matrix, checked once on construction to be unitary.

    The variance 1 - |<U>|^2 needs unitary U; name leads the refusal's message.
    """

    matrix: np.ndarray
    name: str = "operator"

    def __post_init__(self):
        M = linalg.as_square_matrix(self.matrix)
        _refuse_non_unitary(M, self.name)
        object.__setattr__(self, "matrix", M)

    @classmethod
    def stack(cls, Ms, name: str = "operator") -> list["Unitary"]:
        """A Unitary per matrix of the stack Ms (k, n, n), all checked by one unitarity test."""
        Ms = linalg.as_square_matrix(Ms, stack=True)
        _refuse_non_unitary(Ms, name)
        return [vars(u := object.__new__(cls)).update(matrix=M, name=name) or u for M in Ms]  # no __post_init__

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.matrix, dtype=dtype)

    @classmethod
    def matrix_on(cls, A, dim: int, name: str = "operator") -> np.ndarray:
        """The matrix of A, which must act on dim; only a non-Unitary A is checked."""
        M = (A if isinstance(A, cls) else cls(A, name)).matrix
        if M.shape[0] != dim:
            raise UurError(f"operator dim {M.shape[0]} != state dim {dim}")
        return M


def _refuse_non_unitary(stack: np.ndarray, name: str):
    """Refuse the first matrix of a complex stack, or the one matrix, off by more than UNITARY_TOL."""
    dev = linalg.unitary_deviation(stack)
    bad = dev[~(dev <= linalg.UNITARY_TOL)]  # a NaN deviation fails too
    if bad.size:
        raise UurError(f"{name} deviates from unitarity by {bad[0]:.3e} (tol {linalg.UNITARY_TOL:.1e})")


@dataclass(frozen=True)
class DeltaVector:
    """Coordinates of (A - <A>)|psi> plus the mean <A> they were built from.

    For unitary A the squared norm of the entries is the variance
    1 - |<A>|^2; that identity is what makes these coordinates useful.
    """

    entries: np.ndarray
    mean: complex

    @property
    def variance(self) -> float:
        """<dA^dagger dA>, the squared norm of the entries."""
        return float(np.vdot(self.entries, self.entries).real)

    def correlation(self, other: "DeltaVector") -> complex:
        """<A^dagger B> - <A^dagger><B>, the inner product with other's entries."""
        return complex(np.vdot(self.entries, other.entries))


@dataclass(frozen=True)
class ModulusPair:
    """The finite, nonnegative coordinate moduli x, y for an operator pair.

    x_i = |alpha_i| and y_i = |beta_i| where alpha, beta are the delta
    coordinate vectors of the two operators on the shared state. The
    pairwise bound formulas consume only x and y, through their squares,
    each kind formed on first use and kept: mutating x or y after that leaves
    them stale (like DensityMatrix.eig), and an overflowing square warns once.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        vars(self).update(zip("xy", self.checked(self.x, self.y)))  # frozen: no __setattr__

    @staticmethod
    def checked(*rows) -> list[np.ndarray]:
        """Float rows, refused at the first failed check: 1-D of one length, finite, nonempty, nonnegative."""
        rows = [np.asarray(r, dtype=float) for r in rows]
        if len({r.shape for r in rows}) > 1 or rows[0].ndim != 1:
            raise UurError(f"x and y must be 1-D of equal length, got {' and '.join(str(r.shape) for r in rows)}")
        if not (rows[0].size and all(0.0 <= t < np.inf for r in rows for t in r.tolist())):
            raise UurError("modulus vectors must " + ("be finite" if not all(np.isfinite(r).all() for r in rows)
                           else "not be empty" if not rows[0].size else "be nonnegative"))  # NaN: fails the scan
        return rows

    @property
    def dim(self) -> int:
        return self.x.size

    @property
    def squares(self) -> tuple[np.ndarray, np.ndarray]:
        """numpy's (x ** 2, y ** 2), which the sums and the split search read."""
        if "squares" not in (kept := vars(self)):  # not a cached_property: its first read takes a lock
            kept["squares"] = self.x ** 2, self.y ** 2
        return kept["squares"]

    @property
    def pow_terms(self) -> tuple[list[float], list[float], float]:
        """The C-pow squares of x and y and numpy's sum of x_i^2 y_i^2, which the transcribed sums read."""
        if "pow_terms" not in (kept := vars(self)):
            X2, Y2 = self.squares
            try:  # C pow: a Python float's ** is numpy scalar's, but raises where that gives inf
                x2, y2 = [t ** 2 for t in self.x.tolist()], [t ** 2 for t in self.y.tolist()]
            except OverflowError:
                x2, y2 = [float(t ** 2) for t in self.x], [float(t ** 2) for t in self.y]
            kept["pow_terms"] = x2, y2, float((X2 * Y2).sum())
        return kept["pow_terms"]

    @classmethod
    def unchecked(cls, x: np.ndarray, y: np.ndarray) -> "ModulusPair":
        """The pair of two moduli rows that delta_stack's finiteness test, or checked, has passed."""
        return vars(pair := object.__new__(cls)).update(x=x, y=y) or pair  # no __post_init__


def expectation(A, psi: PureState) -> complex:
    """<psi|A|psi>."""
    M = linalg.as_square_matrix(A)
    if M.shape[0] != psi.dim:
        raise UurError(f"operator dim {M.shape[0]} != state dim {psi.dim}")
    return complex(np.vdot(psi.amplitudes, M @ psi.amplitudes))


def delta_stack(Ms, P) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entries, means and finite moduli of the delta vectors of Ms (k, n, n) on P (k, n), row by row: the one
    place an operator and a state become moments. Ms holds matrices that Unitary or Unitary.stack has checked
    (one per state, or U.matrix[None] broadcast over every state); this tests no unitarity. Both stacks are
    made C-contiguous (BLAS rounds strided ones differently), and tests/oracles.py's per-item delta_vector
    and from_deltas are its bit-for-bit references."""
    Ms, P = np.ascontiguousarray(Ms, dtype=complex), np.ascontiguousarray(P, dtype=complex)
    image = (Ms @ P[..., None])[..., 0]
    means = (P.conj()[:, None, :] @ image[..., None])[:, 0, 0]
    moduli = np.abs(entries := image - means[:, None] * P)
    if not np.isfinite(moduli).all():
        raise UurError("modulus vectors must be finite")  # what ModulusPair says of such a row
    return entries, means, moduli


def variance_mixed(A, rho: DensityMatrix) -> float:
    """Variance 1 - |Tr(A rho)|^2 of a unitary operator on a mixed state."""
    return float(1.0 - abs((Unitary.matrix_on(A, rho.dim) @ rho.matrix).trace()) ** 2)


def gram_matrix(ops, psi: PureState) -> np.ndarray:
    """Overlap matrix of (I, U_1, ..., U_l) applied to the state.

    Entry (j, k) is <U_j psi | U_k psi>; the identity is prepended as row
    and column 0. Positive semidefinite by construction, unit diagonal for
    unitary inputs.
    """
    W = np.column_stack([psi.amplitudes] + [
        Unitary.matrix_on(U, psi.dim, f"operator {idx}") @ psi.amplitudes
        for idx, U in enumerate(ops)])
    return W.conj().T @ W


def purify(rho: DensityMatrix) -> PureState:
    """Spectral purification: the unit vector vec(sqrt(rho)) on C^n (x) C^n.

    Expectations of lifted operators I (x) A reproduce Tr(A rho) exactly.
    The partial trace over the first factor is rho; the one over the second
    factor is the transpose of rho (they coincide only for real rho).
    """
    w, V = rho.eig  # eigenvalues in [-TOL, 0) are rounding debris, clamped to zero
    v = linalg.vec((V * np.sqrt(w.clip(0.0, None))) @ V.conj().T)
    return PureState.normalized(v)


def lift(A) -> np.ndarray:
    """Lift an operator to the purified space as I (x) A: np.kron's own broadcast product."""
    M = linalg.as_square_matrix(A)
    return (np.eye(len(M), dtype=complex)[:, None, :, None] * M[None, :, None, :]).reshape(M.size, M.size)


def bloch_density(r) -> DensityMatrix:
    """Qubit density matrix (I + r . sigma)/2 from a Bloch 3-vector."""
    r = np.asarray(r, dtype=float).reshape(-1)
    if r.size != 3:
        raise UurError(f"Bloch vector must have 3 components, got {r.size}")
    with np.errstate(over="ignore"):  # a huge component reads as norm inf
        nrm = linalg.vector_norm(r)
    if nrm > 1.0 + linalg.BLOCH_TOL:
        raise UurError(f"Bloch vector norm {nrm!r} exceeds 1")
    M = 0.5 * (np.eye(2, dtype=complex) + r[0] * sigma_x + r[1] * sigma_y + r[2] * sigma_z)
    return DensityMatrix(matrix=M)
