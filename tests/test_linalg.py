from __future__ import annotations

import math

import numpy as np
import pytest

from uur import linalg

from conftest import assert_same_bits, refused


def test_vec_stacks_columns():
    M = np.array([[1, 3], [2, 4]], dtype=complex)
    assert np.array_equal(linalg.vec(M), np.array([1, 2, 3, 4], dtype=complex))


def test_vec_identity_with_lifted_operators():
    # (I (x) A) vec(M) must equal vec(A M) for column stacking.
    gen = np.random.Generator(np.random.Philox(key=6))
    A = gen.normal(size=(3, 3)) + 1j * gen.normal(size=(3, 3))
    M = gen.normal(size=(3, 3)) + 1j * gen.normal(size=(3, 3))
    lhs = np.kron(np.eye(3), A) @ linalg.vec(M)
    rhs = linalg.vec(A @ M)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_unitary_deviation():
    U = np.array([[0, 1], [1, 0]], dtype=complex)
    assert linalg.unitary_deviation(U) < 1e-15
    assert linalg.unitary_deviation(2 * U) > 1.0


def test_partial_trace_recovers_factors():
    gen = np.random.Generator(np.random.Philox(key=7))
    Za = gen.normal(size=(3, 3)) + 1j * gen.normal(size=(3, 3))
    Zb = gen.normal(size=(3, 3)) + 1j * gen.normal(size=(3, 3))
    ra = Za @ Za.conj().T
    ra /= np.trace(ra).real
    rb = Zb @ Zb.conj().T
    rb /= np.trace(rb).real
    full = np.kron(ra, rb)
    assert np.max(np.abs(linalg.partial_trace(full, keep="first") - ra)) < 1e-12
    assert np.max(np.abs(linalg.partial_trace(full, keep="second") - rb)) < 1e-12


def test_partial_trace_rejects_bad_shape():
    with refused("dimension 6 is not a perfect square"):
        linalg.partial_trace(np.eye(6), keep="first")


def test_partial_trace_rejects_bad_keep():
    with refused("keep must be 'first' or 'second', got 'third'"):
        linalg.partial_trace(np.eye(4), keep="third")


def _philox(key: int, n: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=key, counter=[0, 0, 0, n]))


@pytest.mark.parametrize("n", range(1, 21))
def test_vector_norm_is_numpys_norm_bit_for_bit(n):
    # np.linalg.norm's own sqrt(re . re + im . im) (sqrt(x . x) for real x) on its ravel:
    # zeros, -0.0, strided views (eigenvector columns, every other entry) and overflow.
    gen = _philox(28, n)
    z = gen.standard_normal(n) + 1j * gen.standard_normal(n)
    z[gen.random(n) < 0.2] = 0.0
    z.imag[gen.random(n) < 0.2] = -0.0
    x = gen.standard_normal(n)
    x[::3] = -0.0
    H = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    vectors = [z, x, z.real, z[::2], x[::-1], np.zeros(n), np.full(n, -0.0), np.zeros(n, dtype=complex),
               *np.linalg.eigh(H + H.conj().T).eigenvectors.T, *np.linalg.eigh(H.real + H.real.T).eigenvectors.T,
               *(gen.standard_normal((20, n)) + 1j * gen.standard_normal((20, n)))]
    with np.errstate(over="ignore"):  # numpy's dot warns on the huge entries' squares
        vectors += [z * 1e200, x * 1e200, np.where(np.arange(n) == 0, 1e200, z)]
        for v in vectors:
            assert_same_bits(linalg.vector_norm(v), np.linalg.norm(v))
        assert math.isinf(linalg.vector_norm(vectors[-1]))


@pytest.mark.parametrize("n", range(2, 6))
def test_partial_trace_is_einsums_bit_for_bit(n):
    # Each keep is one axis pair of T = M.reshape(n, n, n, n), summed as einsum sums it.
    gen = _philox(29, n)
    for _ in range(50):
        M = gen.standard_normal((n * n, n * n)) + 1j * gen.standard_normal((n * n, n * n))
        M[gen.random(M.shape) < 0.2] = 0.0
        M.real[gen.random(M.shape) < 0.2] = -0.0
        T = M.reshape(n, n, n, n)
        assert_same_bits(linalg.partial_trace(M, keep="first"), np.einsum("ikjk->ij", T))
        assert_same_bits(linalg.partial_trace(M, keep="second"), np.einsum("kikj->ij", T))
