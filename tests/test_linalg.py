from __future__ import annotations

import numpy as np
import pytest

from uur import errors, linalg


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
    with pytest.raises(errors.DimensionMismatch):
        linalg.partial_trace(np.eye(6), keep="first")


def test_partial_trace_rejects_bad_keep():
    with pytest.raises(ValueError):
        linalg.partial_trace(np.eye(4), keep="third")
