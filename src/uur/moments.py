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
    """Unit-norm complex amplitude vector in the computational basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
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
        units = [object.__new__(cls) for _ in Ms]  # checked above, so __post_init__ is skipped
        return [vars(u).update(matrix=M, name=name) or u for u, M in zip(units, Ms)]

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
    pairwise bound formulas consume only x and y.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.shape != y.shape or x.ndim != 1:
            raise UurError(f"x and y must be 1-D of equal length, got {x.shape} and {y.shape}")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise UurError("modulus vectors must be finite")
        if not x.size:
            raise UurError("modulus vectors must not be empty")
        if x.min() < 0 or y.min() < 0:
            raise UurError("modulus vectors must be nonnegative")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def dim(self) -> int:
        return self.x.size

    @classmethod
    def from_deltas(cls, alpha: DeltaVector, beta: DeltaVector) -> "ModulusPair":
        """The moduli of two delta vectors on a shared state."""
        return cls(x=np.abs(alpha.entries), y=np.abs(beta.entries))


def expectation(A, psi: PureState) -> complex:
    """<psi|A|psi>."""
    M = linalg.as_square_matrix(A)
    if M.shape[0] != psi.dim:
        raise UurError(f"operator dim {M.shape[0]} != state dim {psi.dim}")
    return complex(np.vdot(psi.amplitudes, M @ psi.amplitudes))


def delta_vector(A, psi: PureState) -> DeltaVector:
    """Coordinates of (A - <A>)|psi> in the computational basis."""
    image = Unitary.matrix_on(A, psi.dim) @ psi.amplitudes
    mean = complex(np.vdot(psi.amplitudes, image))
    return DeltaVector(entries=image - mean * psi.amplitudes, mean=mean)


def modulus_pair(A, B, psi: PureState) -> ModulusPair:
    """Coordinate moduli x, y of the two delta vectors on a shared state."""
    return ModulusPair.from_deltas(delta_vector(A, psi), delta_vector(B, psi))


def correlation(A, B, psi: PureState) -> complex:
    """<A^dagger B> - <A^dagger><B>, the cross term of the pair.

    Computed as the inner product of the two delta coordinate vectors,
    which equals the operator form identically.
    """
    return delta_vector(A, psi).correlation(delta_vector(B, psi))


def variance_pure(A, psi: PureState) -> float:
    """Variance <dA^dagger dA> of a unitary operator on a pure state."""
    return delta_vector(A, psi).variance


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
