"""Dense complex linear algebra for small matrices.

Everything here works on plain numpy arrays of complex128: square-matrix
coercion, the unitarity deviation, vector norms, vectorization and partial
traces. Matrices are square, dense and small (tens, not thousands), so a
numpy wrapper costs more than its arithmetic. There is no eigensolver here:
a moments.DensityMatrix diagonalises itself once, when it is checked.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UurError

# The validation tolerances of linalg and moments.
UNITARY_TOL = 1e-8  # building a moments.Unitary
TOL = 1e-10  # state norm; density Hermiticity, trace, eigenvalues (purify clamps those in [-TOL, 0) to 0)
BLOCH_TOL = 1e-12  # how far a Bloch vector may exceed length 1


def as_square_matrix(M, stack: bool = False) -> np.ndarray:
    """Coerce input to a finite square complex matrix, or a stack (k, n, n) of them."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 + stack or A.shape[-2] != A.shape[-1]:
        raise UurError(f"expected a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise UurError("matrix entries must be finite")
    return A


def vector_norm(v: np.ndarray) -> float:
    """np.linalg.norm(v) of a float or complex vector without its wrapper: the same ravel and dots."""
    v = v.ravel(order="K")
    if v.dtype.kind == "c":
        re, im = v.real, v.imag
        return math.sqrt(float(re.dot(re)) + float(im.dot(im)))
    return math.sqrt(v.dot(v))


def vec(M) -> np.ndarray:
    """Column-stacking vectorization: entry (i, j) lands at position j*n + i.

    This convention pairs with lifted operators of the form I (x) A, so that
    <vec(M)| I (x) A |vec(M)> = Tr(A M M^dagger).
    """
    return as_square_matrix(M).T.reshape(-1)


def unitary_deviation(A: np.ndarray) -> np.ndarray:
    """Max-norm distance of A^dagger A from the identity, per matrix of a complex stack (..., n, n)."""
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries give inf or nan
        return np.abs(A.conj().swapaxes(-1, -2) @ A - np.eye(A.shape[-1])).max(axis=(-2, -1))


def partial_trace(M, keep: str) -> np.ndarray:
    """Trace out one tensor factor of an operator on C^n (x) C^n.

    M must be n^2 x n^2 with both factors of equal dimension n. keep="first"
    traces out the second factor, keep="second" the first.
    """
    A = as_square_matrix(M)
    n = int(round(np.sqrt(A.shape[0])))
    if n * n != A.shape[0]:
        raise UurError(f"dimension {A.shape[0]} is not a perfect square")
    T = A.reshape(n, n, n, n)
    if keep == "first":
        return T.trace(axis1=1, axis2=3)
    if keep == "second":
        return T.trace(axis1=0, axis2=2)
    raise UurError(f"keep must be 'first' or 'second', got {keep!r}")
