from __future__ import annotations

import numpy as np
import pytest

from uur import errors, linalg


def test_hermitian_eig_orders_ascending():
    M = np.diag([3.0, -1.0, 2.0]).astype(complex)
    dec = linalg.hermitian_eig(M)
    assert np.allclose(dec.eigenvalues, [-1.0, 2.0, 3.0])
    recon = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.conj().T
    assert np.max(np.abs(recon - M)) < 1e-12


def test_hermitian_eig_rejects_non_hermitian():
    M = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(errors.NotHermitian):
        linalg.hermitian_eig(M)


def test_hermitian_eig_rejects_non_square():
    with pytest.raises(errors.DimensionMismatch):
        linalg.hermitian_eig(np.zeros((2, 3)))


def test_hermitian_eig_rejects_non_finite():
    M = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(errors.DimensionMismatch):
        linalg.hermitian_eig(M)


def test_psd_sqrt_squares_back():
    gen = np.random.Generator(np.random.Philox(key=5))
    Z = gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4))
    P = Z @ Z.conj().T
    R = linalg.psd_sqrt(P)
    assert np.max(np.abs(R @ R - P)) < 1e-10
    assert np.max(np.abs(R - R.conj().T)) < 1e-10


def test_psd_sqrt_clamps_negative_noise():
    P = np.diag([1.0, -5e-11]).astype(complex)
    R = linalg.psd_sqrt(P)
    assert R[1, 1] == 0.0


def test_psd_sqrt_rejects_negative():
    with pytest.raises(errors.NotPSD):
        linalg.psd_sqrt(np.diag([1.0, -1e-6]).astype(complex))


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
