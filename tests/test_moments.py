from __future__ import annotations

import dataclasses
import math
import sys

import numpy as np
import pytest

from uur import errors, linalg, moments, sampling, scenarios

from conftest import assert_same_bits, refused
from oracles import (
    delta_vector, from_deltas, random_state, random_unitary, two_pass_purify, variance_pure)


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
    assert variance_pure(moments.sigma_z, psi) == pytest.approx(0.0, abs=1e-15)
    assert variance_pure(moments.sigma_x, psi) == pytest.approx(1.0)


def test_expectation_refuses_an_operator_of_another_dimension():
    psi = moments.PureState(amplitudes=np.array([1.0, 0.0], dtype=complex))
    with refused("operator dim 3 != state dim 2"):
        moments.expectation(np.eye(3), psi)


def test_variance_never_exceeds_one():
    gen = sampling.trial_generator(seed=2, trial=0)
    for _ in range(50):
        d = int(gen.integers(2, 6))
        U = random_unitary(gen, d)
        psi = random_state(gen, d)
        var = variance_pure(U, psi)
        assert -1e-12 <= var <= 1.0 + 1e-12


def test_variance_rejects_non_unitary():
    # A pure state's variance is that of a delta_stack row, and delta_stack
    # takes only matrices a Unitary has checked: a non-unitary operator stops
    # there, with the message the per-item form gave.
    psi = moments.PureState(amplitudes=np.array([1.0, 0.0], dtype=complex))
    message = "operator deviates from unitarity by 3.000e+00 (tol 1.0e-08)"
    for build in (lambda A: moments.Unitary(A), lambda A: variance_pure(A, psi)):
        with refused(message):
            build(np.diag([1.0, 2.0]).astype(complex))


QUBIT = moments.PureState(amplitudes=np.array([0.6, 0.8j]))
# Every function that takes an operator and a state and needs the operator unitary, called with A in
# the first slot. delta_stack takes only checked matrices; its callers build each Unitary first.
UNITARY_BOUNDARY = {
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


def test_a_state_stack_is_checked_once_and_refuses_its_first_bad_row():
    rng = sampling.trial_generator(7, 1, 3)
    P = np.array([random_state(rng, 4).amplitudes for _ in range(5)])
    states = moments.PureState.stack(np.asfortranarray(P))
    assert all(psi.amplitudes.flags.c_contiguous for psi in states)
    assert all(np.array_equal(psi.amplitudes, row) for psi, row in zip(states, P))
    for bad_rows, message in (({2: 1.5, 4: np.nan}, "state norm 1.5 deviates from 1 by more than 1e-10"),
                              ({1: np.nan, 3: 0.5}, "state amplitudes must be finite"),
                              ({0: 1e200}, "state norm inf deviates from 1 by more than 1e-10")):
        bad = P.copy()
        for i, scale in bad_rows.items():
            bad[i] = [scale, 0, 0, 0]
        first = bad[min(bad_rows)]
        for build in (lambda: moments.PureState.stack(bad), lambda: moments.PureState(first)):
            with refused(message):
                build()


def test_a_strided_state_is_kept_contiguous_and_rounds_as_its_copy():
    # A unitary's column is a unit vector with a stride of n entries. Kept as
    # a view, BLAS's strided kernels gave delta_vector other last bits than on
    # the contiguous copy in about half of such cases; a contiguous vector is
    # kept without a copy.
    rng = sampling.trial_generator(34, 2)
    for n in range(2, 17):
        for _ in range(4):
            A, W = random_unitary(rng, n), random_unitary(rng, n)
            column = W[:, n // 2]
            psi = moments.PureState(column)
            assert psi.amplitudes.flags.c_contiguous and not column.flags.c_contiguous
            got, want = delta_vector(A, psi), delta_vector(A, moments.PureState(column.copy()))
            assert_same_bits(got.entries, want.entries)
            assert_same_bits(got.mean, want.mean)
    contiguous = column.copy()
    assert np.shares_memory(moments.PureState(contiguous).amplitudes, contiguous)


def _stacked_case(rows: int, d: int):
    """rows unitaries of dimension d and the states they act on, 1 to 4 operators per state in turn."""
    rng = sampling.trial_generator(34, rows, d)
    counts = [1 + t % 4 for t in range(rows)]
    owner = [t for t, k in enumerate(counts) for _ in range(k)][:rows]
    P = np.array([random_state(rng, d).amplitudes for _ in range(owner[-1] + 1)])
    return sampling.haar_unitaries(sampling.complex_gaussians(rng, rows, d, d)), P[owner]


@pytest.mark.parametrize("rows", [1, 2, 64, 128, 192])
def test_delta_stack_matches_delta_vector_and_from_deltas_row_by_row(rows):
    # The stacked images, means, entries and moduli equal the per-item forms
    # bit for bit at every dimension check draws, on a C-contiguous and on a
    # column-major state stack (which the form copies to C order first).
    for d in range(2, 9):
        Ms, P = _stacked_case(rows, d)
        for states in (P, np.asfortranarray(P)):
            entries, means, moduli = moments.delta_stack(Ms, states)
            assert entries.shape == moduli.shape == (rows, d) and means.shape == (rows,)
            for M, p, e, mean, x in zip(Ms, P, entries, means, moduli):
                alone = delta_vector(M, moments.PureState(p))
                assert_same_bits(e, alone.entries)
                assert_same_bits(mean, alone.mean)
                assert_same_bits(x, from_deltas(alone, alone).x)
        x, y = moduli[0], moduli[-1]
        pair = moments.ModulusPair.unchecked(x, y)  # the rows themselves, with no second scan
        assert pair.dim == d and pair.x is x and pair.y is y


def test_delta_stack_refuses_non_finite_moduli():
    Ms, P = _stacked_case(6, 3)
    Ms[4][1, 1] = np.inf
    with refused("modulus vectors must be finite"), np.errstate(invalid="ignore"):
        moments.delta_stack(Ms, P)


def _broadcast_cases():
    """(label, unitaries, state stack): each built-in example on 129 angles of its theta range
    (two 64-angle blocks and one more), 3 seeded unitaries on 70 random states at n = 2..18, ex1 on 70
    seeded uniform angles in [0, pi) at d = 3..8 (check's cross_bound_chain draw), and 2 seeded
    unitaries on the normalised eigenvectors of 10 seeded densities at n = 2..4 (its mixed-state floor)."""
    examples = [("ex1", d) for d in range(2, 21)] + [("ex2", d) for d in range(3, 17)]
    for sid, d in examples + [(sid, None) for sid in ("ex3", "ex4", "ex5", "ex6")]:
        scen = scenarios.scenario(sid, d)
        grid = scenarios.theta_grid(*scen.theta_range, 129)
        yield (f"{sid} d={scen.dimension}", [moments.Unitary(M) for _, M in scen.operators],
               np.array([scen.state(theta).amplitudes for theta in grid]))
    for n in range(2, 19):
        rng = sampling.trial_generator(35, n, 7)
        ops = [moments.Unitary(random_unitary(rng, n)) for _ in range(3)]
        yield f"random n={n}", ops, np.array([random_state(rng, n).amplitudes for _ in range(70)])
    for d in range(3, 9):
        scen, rng = scenarios.scenario("ex1", d), sampling.trial_generator(36, d, 31)
        yield (f"ex1 d={d} uniform", [moments.Unitary(M) for _, M in scen.operators],
               np.array([scen.state(float(rng.uniform(0.0, math.pi))).amplitudes for _ in range(70)]))
    for n in range(2, 5):
        rng = sampling.trial_generator(36, n, 11)
        for k in range(10):
            rho = sampling.random_density(rng, n)
            ops = [moments.Unitary(random_unitary(rng, n)) for _ in range(2)]
            yield (f"density n={n} #{k}", ops,
                   np.array([moments.PureState.normalized(v).amplitudes for v in rho.eig.eigenvectors.T]))


def test_one_operator_broadcast_over_a_state_stack_is_delta_vector_row_by_row():
    # A sweep forms a block's delta vectors with one delta_stack per operator,
    # U.matrix[None] broadcast over the block's states (M[None] @ P[..., None]),
    # and so do check's ex1 rows and mixed-state floor: entries, means and
    # moduli equal the per-item delta_vector's and from_deltas' per row, sign
    # bits included, on every example's grid (ex4's lifted 4x4 operators too),
    # on random states, on ex1 at random angles and on density eigenvectors,
    # also from a column-major state stack.
    rows = 0
    for label, ops, P in _broadcast_cases():
        assert P.flags.c_contiguous, label
        for states in (P, np.asfortranarray(P)):
            stacks = [moments.delta_stack(U.matrix[None], states) for U in ops]
            for r, amplitudes in enumerate(P):
                psi = moments.PureState(amplitudes)
                alone = [delta_vector(U, psi) for U in ops]
                for (entries, means, _), dv in zip(stacks, alone):
                    assert_same_bits(entries[r], dv.entries)
                    assert_same_bits(means[r], dv.mean)
                pair = from_deltas(*alone[:2])
                assert_same_bits(stacks[0][2][r], pair.x)
                assert_same_bits(stacks[1][2][r], pair.y)
                rows += 1
    assert rows == 2 * (129 * (19 + 14 + 4) + 70 * 17 + 70 * 6 + 10 * (2 + 3 + 4))


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
    rho = moments.bloch_density([0.1, 0.2, 0.3])
    raw = moments.variance_mixed(moments.sigma_y, rho), moments.gram_matrix([moments.sigma_y], QUBIT)
    calls = {"unitary_deviation": 0, "as_square_matrix": 0}
    for name in calls:
        def counting(M, name=name, real=getattr(linalg, name)):
            calls[name] += 1
            return real(M)
        monkeypatch.setattr(linalg, name, counting)
    wrapped = moments.variance_mixed(U, rho), moments.gram_matrix([U], QUBIT)
    moments.gram_matrix([U, U], QUBIT)
    assert calls == {"unitary_deviation": 0, "as_square_matrix": 0}
    assert wrapped[0] == raw[0] and np.array_equal(wrapped[1], raw[1])
    # A raw matrix is coerced once, inside the unitarity check.
    moments.variance_mixed(moments.sigma_y, rho)
    assert calls == {"unitary_deviation": 1, "as_square_matrix": 1}


def test_delta_vector_is_orthogonal_shift():
    # Each row of one operator broadcast over a stack of states: <psi| (U - <U>) |psi> = 0 by
    # construction, and the row's mean is <U>.
    gen = sampling.trial_generator(seed=3, trial=0)
    U = moments.Unitary(random_unitary(gen, 3))
    states = [random_state(gen, 3) for _ in range(4)]
    entries, means, _ = moments.delta_stack(U.matrix[None], np.array([psi.amplitudes for psi in states]))
    for psi, e, mean in zip(states, entries, means):
        assert abs(np.vdot(psi.amplitudes, e)) < 1e-12
        assert mean == pytest.approx(moments.expectation(U.matrix, psi))


def test_modulus_pair_matches_variances():
    # A pair of delta_stack moduli rows holds each operator's variance as its squared norm.
    gen = sampling.trial_generator(seed=4, trial=0)
    A = moments.Unitary(random_unitary(gen, 4))
    B = moments.Unitary(random_unitary(gen, 4))
    psi = random_state(gen, 4)
    (ea, ma, x), (eb, mb, y) = (moments.delta_stack(U.matrix[None], psi.amplitudes[None]) for U in (A, B))
    pair = moments.ModulusPair.unchecked(x[0], y[0])
    for moduli, entries, mean, U in ((pair.x, ea, ma, A), (pair.y, eb, mb, B)):
        variance = float(np.dot(moduli, moduli))
        assert variance == pytest.approx(moments.DeltaVector(entries[0], complex(mean[0])).variance)
        assert variance == pytest.approx(1.0 - abs(moments.expectation(U.matrix, psi)) ** 2)
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
    ([-1.0, math.nan], [1.0, 1.0], "modulus vectors must be finite"),
    ([-1.0, 1.0], [math.nan, 1.0], "modulus vectors must be finite"),
    ([-1.0, 1.0], [1.0, math.inf], "modulus vectors must be finite"),
    ([1.0, -math.inf], [1.0, 1.0], "modulus vectors must be finite"),
    ([], [], "modulus vectors must not be empty"),
    ([1.0, 1.0], [-0.5, 1.0], "modulus vectors must be nonnegative"),
    ([-5e-324, 0.0], [0.0, 0.0], "modulus vectors must be nonnegative"),
    ([-0.0, sys.float_info.max], [0.0, -0.0], None)],
    ids=["unequal-before-nan-and-negative", "2d-before-nan-and-negative", "nan-before-negative",
         "nan-after-negative", "nan-beside-a-negative", "inf-before-negative", "minus-inf", "empty",
         "negative", "negative-subnormal", "minus-zero-and-the-largest-float-pass"])
def test_modulus_pair_refuses_shape_then_non_finite_then_negative(x, y, message):
    # One scan passes a finite, nonnegative pair; a refusal names the first
    # failed check in the order shape, finite, empty, nonnegative.
    if message is None:
        pair = moments.ModulusPair(x, y)
        assert [np.signbit(pair.x[0]), pair.x[1], np.signbit(pair.y[1])] == [True, sys.float_info.max, True]
        return
    with refused(message):
        moments.ModulusPair(x, y)


def test_correlation_coordinate_identity():
    # The inner product of two stacked delta vectors on one state is the operator form
    # <A^dagger B> - <A^dagger><B>, and |correlation| <= |x| |y| by Cauchy-Schwarz.
    gen = sampling.trial_generator(seed=5, trial=0)
    A = moments.Unitary(random_unitary(gen, 4))
    B = moments.Unitary(random_unitary(gen, 4))
    psi = random_state(gen, 4)
    a = psi.amplitudes
    entries, means, moduli = moments.delta_stack(np.array([A.matrix, B.matrix]), np.array([a, a]))
    alpha, beta = (moments.DeltaVector(e, m) for e, m in zip(entries, means.tolist()))
    direct = complex(np.vdot(a, A.matrix.conj().T @ B.matrix @ a)
                     - np.conj(np.vdot(a, A.matrix @ a)) * np.vdot(a, B.matrix @ a))
    assert abs(direct - alpha.correlation(beta)) < 1e-12
    pair = moments.ModulusPair.unchecked(*moduli)
    assert abs(direct) <= math.sqrt(float(np.dot(pair.x, pair.x)) *
                                    float(np.dot(pair.y, pair.y))) + 1e-12


def test_variance_mixed_pure_case_agrees():
    psi = moments.PureState(amplitudes=np.array([0.6, 0.8], dtype=complex))
    rho = moments.DensityMatrix(matrix=np.outer(psi.amplitudes, psi.amplitudes.conj()))
    U = moments.sigma_x
    assert moments.variance_mixed(U, rho) == pytest.approx(variance_pure(U, psi))


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
        assert variance_pure(lifted, psi) == pytest.approx(
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
