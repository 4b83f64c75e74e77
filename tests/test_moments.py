from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from uur import errors, linalg, moments, sampling

from conftest import assert_same_bits, refused
from oracles import random_unitary, two_pass_purify


def test_pure_state_requires_unit_norm():
    with refused("state norm 1.4142135623730951 deviates from 1 by more than 1e-10"):
        moments.PureState(amplitudes=np.array([1.0, 1.0], dtype=complex))


@pytest.mark.parametrize("amplitudes, message", [
    ([np.nan, 1.0], "state amplitudes must be finite"),
    ([complex(0, -np.inf), 0.0], "state amplitudes must be finite"),
    ([1e200, np.nan], "state amplitudes must be finite"),
    ([complex(np.nan, 1e200), np.inf], "state amplitudes must be finite"),
    ([1e200, 1.0], "state norm inf deviates from 1 by more than 1e-10"),
    ([complex(1e200, 1e200)], "state norm inf deviates from 1 by more than 1e-10"),
    ([0.0, -0.0], "state norm 0.0 deviates from 1 by more than 1e-10"),
    ([1e-200, 0.0], "state norm 0.0 deviates from 1 by more than 1e-10")],
    ids=["nan", "inf", "nan-beside-huge", "nan-and-inf-beside-huge", "huge", "huge-complex",
         "zeros", "tiny"])
def test_pure_state_refuses_non_finite_before_norm(amplitudes, message):
    # The norm runs first; a NaN or inf amplitude makes it NaN or inf, which fails the
    # norm test, and only then are the amplitudes scanned: the finite message still wins.
    with refused(message):
        moments.PureState(np.array(amplitudes))


def test_density_matrix_validation():
    ok = moments.DensityMatrix(matrix=np.diag([0.5, 0.5]).astype(complex))
    assert ok.dim == 2
    with refused("trace (1.1+0j) deviates from 1 by more than 1e-10"):
        moments.DensityMatrix(matrix=np.diag([0.9, 0.2]).astype(complex))
    with refused("density matrix has an eigenvalue below -1e-10"):
        moments.DensityMatrix(matrix=np.diag([1.5, -0.5]).astype(complex))
    with refused("density matrix is not Hermitian to 1e-10"):
        moments.DensityMatrix(matrix=np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))


def test_expectation_and_variance_on_eigenvector():
    psi = moments.PureState(amplitudes=np.array([1.0, 0.0], dtype=complex))
    assert moments.expectation(moments.sigma_z, psi) == pytest.approx(1.0)
    assert moments.variance_pure(moments.sigma_z, psi) == pytest.approx(0.0, abs=1e-15)
    assert moments.variance_pure(moments.sigma_x, psi) == pytest.approx(1.0)


def test_variance_never_exceeds_one():
    gen = sampling.trial_generator(seed=2, trial=0)
    for _ in range(50):
        d = int(gen.integers(2, 6))
        U = random_unitary(gen, d)
        psi = sampling.random_state(gen, d)
        var = moments.variance_pure(U, psi)
        assert -1e-12 <= var <= 1.0 + 1e-12


def test_variance_rejects_non_unitary():
    psi = moments.PureState(amplitudes=np.array([1.0, 0.0], dtype=complex))
    with refused("operator deviates from unitarity by 3.000e+00 (tol 1.0e-08)"):
        moments.variance_pure(np.diag([1.0, 2.0]).astype(complex), psi)


QUBIT = moments.PureState(amplitudes=np.array([0.6, 0.8j]))
# Every function that needs a unitary operator, called with A in the first slot.
UNITARY_BOUNDARY = {
    "delta_vector": lambda A: moments.delta_vector(A, QUBIT),
    "modulus_pair": lambda A: moments.modulus_pair(A, moments.sigma_x, QUBIT),
    "correlation": lambda A: moments.correlation(A, moments.sigma_x, QUBIT),
    "variance_pure": lambda A: moments.variance_pure(A, QUBIT),
    "variance_mixed": lambda A: moments.variance_mixed(A, moments.bloch_density([0.1, 0.2, 0.3])),
    "gram_matrix": lambda A: moments.gram_matrix([moments.sigma_x, A], QUBIT),
}


@pytest.mark.parametrize("name", sorted(UNITARY_BOUNDARY))
def test_unitary_boundary_rejects_non_unitary_and_wrong_size(name):
    call = UNITARY_BOUNDARY[name]
    # gram_matrix names each operator by its position: A is "operator 1".
    operator = "operator 1" if name == "gram_matrix" else "operator"
    with refused(f"{operator} deviates from unitarity by 3.000e+00 (tol 1.0e-08)"):
        call(np.diag([1.0, 2.0]).astype(complex))
    with refused("operator dim 3 != state dim 2"):
        call(np.eye(3, dtype=complex))
    with refused("operator dim 3 != state dim 2"):
        call(moments.Unitary(np.eye(3)))
    call(moments.Unitary(moments.sigma_z))


def test_unitary_construction_checks_and_names_the_operator():
    with refused("operator 'Z' deviates from unitarity by 3.000e+00 (tol 1.0e-08)"):
        moments.Unitary(2 * moments.sigma_z, "operator 'Z'")
    with refused("expected a square matrix, got shape (2, 3)"):
        moments.Unitary(np.ones((2, 3)))
    U = moments.Unitary(moments.sigma_y.tolist())
    assert U.matrix.dtype == complex and np.array_equal(np.asarray(U), moments.sigma_y)


def test_a_deviation_that_overflows_to_nan_is_refused():
    # Finite entries near 1e200 overflow M^dagger M to inf - inf = NaN;
    # NaN is not within the tolerance, so the matrix is not unitary.
    huge = 1e200 * (1 + 1j) * np.array([[1.0, 1.0], [1.0, -1.0]])
    with refused("operator 'H' deviates from unitarity by nan (tol 1.0e-08)"):
        moments.Unitary(huge, "operator 'H'")


def test_a_stack_is_checked_once_and_refuses_its_first_bad_matrix():
    rng = sampling.trial_generator(7, 0, 3)
    stack = np.array([random_unitary(rng, 4) for _ in range(5)])
    units = moments.Unitary.stack(stack, "operator 'S'")
    assert [U.name for U in units] == ["operator 'S'"] * 5
    assert all(np.array_equal(U.matrix, M) for U, M in zip(units, stack))
    bad = stack.copy()
    bad[2][1, 2] += 1e-3
    bad[4][0, 0] += 5e-2
    # The message Unitary(M) gave for bad[2] before stacks were checked.
    message = "operator deviates from unitarity by 7.999e-04 (tol 1.0e-08)"
    for build in (lambda: moments.Unitary.stack(bad), lambda: moments.Unitary(bad[2])):
        with refused(message):
            build()
    with refused("expected a square matrix, got shape (4, 4)"):
        moments.Unitary.stack(stack[0])
    with refused("expected a square matrix, got shape (5, 4, 4)"):
        moments.Unitary(stack)


VALIDATION_MESSAGES = [
    (lambda: moments.PureState(np.array([np.nan, 1.0])), ValueError,
     "state amplitudes must be finite"),
    (lambda: moments.PureState(np.array([complex(0, np.inf), 1.0])), ValueError,
     "state amplitudes must be finite"),
    (lambda: linalg.as_square_matrix([[np.inf, 0.0], [0.0, 1.0]]), errors.UurError,
     "matrix entries must be finite"),
    (lambda: linalg.as_square_matrix([[complex(1, np.nan), 0.0], [0.0, 1.0]]), errors.UurError,
     "matrix entries must be finite"),
    (lambda: moments.DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]])), errors.UurError,
     "density matrix is not Hermitian to 1e-10"),
    (lambda: moments.DensityMatrix(np.diag([1.5, -0.5])), errors.UurError,
     "density matrix has an eigenvalue below -1e-10"),
    (lambda: moments.bloch_density([0.1, 0.2]), errors.UurError,
     "Bloch vector must have 3 components, got 2"),
]


@pytest.mark.parametrize("build, error, message", VALIDATION_MESSAGES)
def test_validation_error_text(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message


def test_a_unitary_is_neither_checked_nor_coerced_again(monkeypatch):
    U = moments.Unitary(moments.sigma_y)
    raw = moments.delta_vector(moments.sigma_y, QUBIT)
    rho = moments.bloch_density([0.1, 0.2, 0.3])
    calls = {"unitary_deviation": 0, "as_square_matrix": 0}
    for name in calls:
        def counting(M, name=name, real=getattr(linalg, name)):
            calls[name] += 1
            return real(M)
        monkeypatch.setattr(linalg, name, counting)
    wrapped = moments.delta_vector(U, QUBIT)
    moments.variance_mixed(U, rho)
    moments.gram_matrix([U, U], QUBIT)
    assert calls == {"unitary_deviation": 0, "as_square_matrix": 0}
    assert wrapped.mean == raw.mean and np.array_equal(wrapped.entries, raw.entries)
    # A raw matrix is coerced once, inside the unitarity check.
    moments.delta_vector(moments.sigma_y, QUBIT)
    assert calls == {"unitary_deviation": 1, "as_square_matrix": 1}


def test_delta_vector_is_orthogonal_shift():
    gen = sampling.trial_generator(seed=3, trial=0)
    U = random_unitary(gen, 3)
    psi = sampling.random_state(gen, 3)
    dv = moments.delta_vector(U, psi)
    # <psi| (U - <U>) |psi> = 0 by construction.
    assert abs(np.vdot(psi.amplitudes, dv.entries)) < 1e-12
    assert dv.mean == pytest.approx(moments.expectation(U, psi))


def test_modulus_pair_matches_variances():
    gen = sampling.trial_generator(seed=4, trial=0)
    A = random_unitary(gen, 4)
    B = random_unitary(gen, 4)
    psi = sampling.random_state(gen, 4)
    pair = moments.modulus_pair(A, B, psi)
    assert float(np.dot(pair.x, pair.x)) == pytest.approx(moments.variance_pure(A, psi))
    assert float(np.dot(pair.y, pair.y)) == pytest.approx(moments.variance_pure(B, psi))
    assert np.all(pair.x >= 0) and np.all(pair.y >= 0)


def test_modulus_pair_holds_only_the_moduli():
    # The pairwise bounds read x and y alone; a synthetic pair is just its moduli.
    assert [f.name for f in dataclasses.fields(moments.ModulusPair)] == ["x", "y"]
    assert not hasattr(moments.ModulusPair, "from_moduli")
    pair = moments.ModulusPair([3, 0], [1, 2])
    assert pair.x.dtype == float and pair.dim == 2
    with refused("modulus vectors must be nonnegative"):
        moments.ModulusPair([1.0, -1.0], [1.0, 1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("side", ["x", "y"])
def test_modulus_pair_refuses_non_finite_moduli(bad, side):
    # Past this check a NaN modulus makes bound_report's split search find no
    # block ("subset must not be empty"), and an inf one gives an all-inf
    # report that validates; both stop here with one UurError.
    moduli = {"x": [1.0, 2.0, 3.0], "y": [3.0, 2.0, 1.0]}
    moduli[side][1] = bad
    with refused("modulus vectors must be finite"):
        moments.ModulusPair(**moduli)


def test_modulus_pair_refuses_empty_moduli():
    # Past the shape and finite checks, x.min() would raise numpy's zero-size ValueError.
    with refused("modulus vectors must not be empty"):
        moments.ModulusPair([], [])
    with refused("x and y must be 1-D of equal length, got (0,) and (1,)"):
        moments.ModulusPair([], [1.0])


@pytest.mark.parametrize("x, y, message", [
    ([math.nan, -1.0], [1.0], "x and y must be 1-D of equal length, got (2,) and (1,)"),
    ([[-1.0]], [[math.nan]], "x and y must be 1-D of equal length, got (1, 1) and (1, 1)"),
    ([math.nan, -1.0], [1.0, 1.0], "modulus vectors must be finite"),
    ([-1.0, 1.0], [1.0, math.inf], "modulus vectors must be finite"),
    ([1.0, 1.0], [-0.5, 1.0], "modulus vectors must be nonnegative")],
    ids=["unequal-before-nan-and-negative", "2d-before-nan-and-negative", "nan-before-negative",
         "inf-before-negative", "negative"])
def test_modulus_pair_refuses_shape_then_non_finite_then_negative(x, y, message):
    with refused(message):
        moments.ModulusPair(x, y)


def test_correlation_coordinate_identity():
    gen = sampling.trial_generator(seed=5, trial=0)
    A = random_unitary(gen, 4)
    B = random_unitary(gen, 4)
    psi = sampling.random_state(gen, 4)
    pair = moments.modulus_pair(A, B, psi)
    direct = moments.correlation(A, B, psi)
    alpha, beta = moments.delta_vector(A, psi), moments.delta_vector(B, psi)
    via_coords = complex(np.vdot(alpha.entries, beta.entries))
    assert abs(direct - via_coords) < 1e-12
    # |correlation| <= |x| |y| by Cauchy-Schwarz.
    assert abs(direct) <= math.sqrt(float(np.dot(pair.x, pair.x)) *
                                    float(np.dot(pair.y, pair.y))) + 1e-12


def test_variance_mixed_pure_case_agrees():
    psi = moments.PureState(amplitudes=np.array([0.6, 0.8], dtype=complex))
    rho = moments.DensityMatrix(matrix=np.outer(psi.amplitudes, psi.amplitudes.conj()))
    U = moments.sigma_x
    assert moments.variance_mixed(U, rho) == pytest.approx(moments.variance_pure(U, psi))


def test_purify_reproduces_density_and_expectations():
    gen = sampling.trial_generator(seed=6, trial=0)
    rho = sampling.random_density(gen, 3)
    psi = moments.purify(rho)
    assert psi.dim == 9
    kept = linalg.partial_trace(np.outer(psi.amplitudes, psi.amplitudes.conj()),
                                keep="second")
    assert np.max(np.abs(kept - rho.matrix)) < 1e-12
    # The other trace gives the transpose, not rho itself.
    other = linalg.partial_trace(np.outer(psi.amplitudes, psi.amplitudes.conj()),
                                 keep="first")
    assert np.max(np.abs(other - rho.matrix.T)) < 1e-12
    for _ in range(3):
        U = random_unitary(gen, 3)
        lifted = moments.lift(U)
        assert moments.expectation(lifted, psi) == pytest.approx(
            complex(np.trace(U @ rho.matrix)), abs=1e-12)
        assert moments.variance_pure(lifted, psi) == pytest.approx(
            moments.variance_mixed(U, rho), abs=1e-12)


def seeded_densities():
    """Wishart densities of every rank k = 1..d, then one with a -5e-11 eigenvalue, at d = 2..5."""
    gen = sampling.trial_generator(seed=23, trial=0)
    for d in range(2, 6):
        for k in range(1, d + 1):  # k < d leaves d - k eigenvalues at rounding level
            Z = sampling.complex_gaussians(gen, 1, d, k)[0]
            M = Z @ Z.conj().T
            yield M / np.real(np.trace(M))
        p = gen.uniform(0.1, 1.0, d)
        p /= p.sum()
        p[:2] += [-p[0] - 5e-11, p[0] + 5e-11]  # debris just above the -1e-10 refusal
        U = random_unitary(gen, d)
        M = (U * p) @ U.conj().T
        yield (M + M.conj().T) / 2


def test_purify_matches_the_two_pass_purification_bit_for_bit():
    # purify takes sqrt(rho) from the decomposition the check kept; the
    # oracle checks and diagonalises rho again, as purify once did.
    clamped = 0
    for M in seeded_densities():
        rho = moments.DensityMatrix(M)
        again = np.linalg.eigh(rho.matrix)
        assert np.array_equal(rho.eig.eigenvalues, again.eigenvalues)
        assert np.array_equal(rho.eig.eigenvectors, again.eigenvectors)
        assert np.array_equal(moments.purify(rho).amplitudes, two_pass_purify(rho).amplitudes)
        clamped += bool(rho.eig.eigenvalues[0] < 0)
    assert clamped >= 4  # at least the four debris densities take the clamp


def test_purification_of_qubit_mixture_components():
    # Bloch vector (1/3)(1, 2cos t, 2sin t) at t = 0 gives a rank-2 state whose
    # purification has one zero amplitude pattern fixed by the square root.
    rho = moments.bloch_density([1 / 3, 2 / 3, 0.0])
    psi = moments.purify(rho)
    recon = linalg.partial_trace(np.outer(psi.amplitudes, psi.amplitudes.conj()),
                                 keep="second")
    assert np.max(np.abs(recon - rho.matrix)) < 1e-12


def test_bloch_density_ball_boundary():
    rho = moments.bloch_density([0.0, 0.0, 1.0])
    assert rho.matrix[0, 0] == pytest.approx(1.0)
    with refused("Bloch vector norm 1.385640646055102 exceeds 1"):
        moments.bloch_density([0.8, 0.8, 0.8])


def test_lift_acts_on_second_factor():
    U = moments.sigma_x
    L = moments.lift(U)
    assert np.array_equal(L, np.kron(np.eye(2), U))


@pytest.mark.parametrize("n", range(1, 5))
def test_lift_is_numpys_kron_bit_for_bit(n):
    # eye's zeros times a negative entry are -0.0 in both.
    gen = np.random.Generator(np.random.Philox(key=30, counter=[0, 0, 0, n]))
    for _ in range(20):
        M = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
        M[gen.random((n, n)) < 0.25] = 0.0
        M.real[gen.random((n, n)) < 0.25] = -0.0
        M.imag[gen.random((n, n)) < 0.25] = -0.0
        assert_same_bits(moments.lift(M), np.kron(np.eye(n, dtype=complex), M))
