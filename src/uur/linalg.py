"""Dense complex linear algebra for small matrices.

Everything here works on plain numpy arrays of complex128. Matrices are
square and dense; dimensions stay small (tens, not thousands), so clarity
wins over performance everywhere.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotHermitian, NotPSD

# The validation tolerances of linalg and moments.
UNITARY_TOL = 1e-8  # building a moments.Unitary
TOL = 1e-10  # state norm; density Hermiticity, trace, eigenvalues; hermitian_eig; psd_sqrt
BLOCH_TOL = 1e-12  # how far a Bloch vector may exceed length 1


def as_square_matrix(M) -> np.ndarray:
    """Coerce input to a finite square complex matrix."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise DimensionMismatch("matrix entries must be finite")
    return A


def hermitian_eig(M):
    """numpy's EighResult (eigenvalues ascending, eigenvectors) of a Hermitian matrix."""
    A = as_square_matrix(M)
    dev = np.max(np.abs(A - A.conj().T))
    if dev > TOL:
        raise NotHermitian(f"matrix deviates from Hermitian by {dev:.3e} (tol {TOL:.1e})")
    try:
        return np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigensolver failed to converge: {exc}") from exc


def psd_sqrt(M) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues in [-TOL, 0) are rounding debris and are clamped to zero;
    anything more negative is a genuine violation and raises NotPSD.
    """
    w, V = hermitian_eig(M)
    if np.min(w) < -TOL:
        raise NotPSD(f"matrix has eigenvalue {np.min(w):.3e} < {-TOL:g}")
    return (V * np.sqrt(np.clip(w, 0.0, None))) @ V.conj().T


def vec(M) -> np.ndarray:
    """Column-stacking vectorization: entry (i, j) lands at position j*n + i.

    This convention pairs with lifted operators of the form I (x) A, so that
    <vec(M)| I (x) A |vec(M)> = Tr(A M M^dagger).
    """
    return as_square_matrix(M).T.reshape(-1)


def unitary_deviation(M) -> float:
    """Max-norm distance of M^dagger M from the identity."""
    A = as_square_matrix(M)
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries give inf or nan
        return float(np.max(np.abs(A.conj().T @ A - np.eye(A.shape[0]))))


def partial_trace(M, keep: str) -> np.ndarray:
    """Trace out one tensor factor of an operator on C^n (x) C^n.

    M must be n^2 x n^2 with both factors of equal dimension n. keep="first"
    traces out the second factor, keep="second" the first.
    """
    A = as_square_matrix(M)
    n = int(round(np.sqrt(A.shape[0])))
    if n * n != A.shape[0]:
        raise DimensionMismatch(f"dimension {A.shape[0]} is not a perfect square")
    T = A.reshape(n, n, n, n)
    if keep == "first":
        return np.einsum("ikjk->ij", T)
    if keep == "second":
        return np.einsum("kikj->ij", T)
    raise ValueError(f"keep must be 'first' or 'second', got {keep!r}")
