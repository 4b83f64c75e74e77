from __future__ import annotations

import ast
import cmath
import math
from pathlib import Path

import numpy as np
import pytest

from uur import bounds, cli, errors, linalg, moments, scenarios

from conftest import assert_same_bits, refused
from oracles import example1_reference, modulus_pair, variance_pure


def test_clock_operator_small_cases():
    assert np.allclose(scenarios.clock_operator(2), np.diag([1, -1]))
    assert np.allclose(scenarios.clock_operator(4), np.diag([1, 1j, -1, -1j]))
    with refused("clock operator needs dimension >= 2, got 1"):
        scenarios.clock_operator(1)


@pytest.mark.parametrize("d", range(2, 33))
def test_shift_operator_is_the_rolled_identity_bit_for_bit(d):
    assert_same_bits(scenarios.shift_operator(d), np.roll(np.eye(d, dtype=complex), 1, axis=0))


def test_shift_operator_small_cases():
    assert np.allclose(scenarios.shift_operator(2), [[0, 1], [1, 0]])
    assert np.allclose(scenarios.shift_operator(3), [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    with refused("shift operator needs dimension >= 2, got 1"):
        scenarios.shift_operator(1)


def test_clock_shift_commutation():
    for d in range(2, 9):
        A = scenarios.clock_operator(d)
        B = scenarios.shift_operator(d)
        omega = cmath.exp(2j * math.pi / d)
        assert np.max(np.abs(A @ B - omega * B @ A)) < 1e-12
        assert linalg.unitary_deviation(A) <= 1e-12 and linalg.unitary_deviation(B) <= 1e-12


def test_unknown_example_rejected():
    with refused("unknown example id 'ex7'; expected ex1..ex6"):
        scenarios.scenario("ex7")


def test_fixed_dimension_examples_reject_other_dims():
    for sid, d in (("ex3", 4), ("ex4", 3), ("ex5", 3), ("ex6", 4)):
        kind = "qubit dimension" if sid == "ex4" else "dimension"
        with refused(f"{sid} is fixed at {kind} {scenarios.DEFAULT_DIMS[sid]}, got {d}"):
            scenarios.scenario(sid, d)
    with refused("ex2 needs dimension >= 3, got 2"):
        scenarios.scenario("ex2", 2)


@pytest.mark.parametrize("sid, d, message", [
    ("ex7", None, "unknown example id 'ex7'; expected ex1..ex6"),
    ("ex1", 1, "clock operator needs dimension >= 2, got 1"),
    # ex2's own check runs before any operator is built.
    ("ex2", 1, "ex2 needs dimension >= 3, got 1"),
    ("ex2", 2, "ex2 needs dimension >= 3, got 2"),
    ("ex3", 4, "ex3 is fixed at dimension 3, got 4"),
    ("ex4", 3, "ex4 is fixed at qubit dimension 2, got 3"),
    ("ex5", 3, "ex5 is fixed at dimension 4, got 3"),
    ("ex6", 4, "ex6 is fixed at dimension 3, got 4"),
])
def test_scenario_refusals_keep_type_and_message(sid, d, message, capsys):
    with pytest.raises(errors.UurError) as info:
        scenarios.scenario(sid, d)
    assert type(info.value) is errors.UurError  # not SearchSpaceTooLarge
    assert str(info.value) == message
    if sid in scenarios.DEFAULT_DIMS:  # argparse refuses any other --example first
        assert cli.main(["bounds", "--example", sid, "--dim", str(d)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_all_scenarios_unit_norm_states_and_unitary_ops():
    for sid in sorted(scenarios.DEFAULT_DIMS):
        scen = scenarios.scenario(sid)
        lo, hi = scen.theta_range
        for theta in scenarios.theta_grid(lo, hi, 100):
            psi = scen.state(theta)
            assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12
        for _, M in scen.operators:
            assert linalg.unitary_deviation(M) <= 1e-10


def test_ex1_state_shape():
    scen = scenarios.scenario("ex1", 3)
    psi = scen.state(0.0)
    assert np.allclose(psi.amplitudes, [1, 0, 0])
    # At theta = 0 the state is a clock eigenvector and the shift mean is 0.
    A, B = (M for _, M in scen.operators)
    assert variance_pure(A, psi) == pytest.approx(0.0, abs=1e-14)
    assert variance_pure(B, psi) == pytest.approx(1.0)


def test_ex2_printed_clock_phase():
    scen = scenarios.scenario("ex2", 4)
    A = scen.operators[0][1]
    assert A[3, 3] == pytest.approx(cmath.exp(4j * math.pi / 3))
    assert np.allclose(scen.operators[1][1], scenarios.shift_operator(4))


def test_ex3_printed_phases():
    scen = scenarios.scenario("ex3")
    A = scen.operators[0][1]
    assert np.allclose(np.diag(A), [1, cmath.exp(0.5j * math.pi), cmath.exp(1.5j * math.pi)])


def test_ex4_operators_are_lifted_rotations():
    scen = scenarios.scenario("ex4")
    assert scen.dimension == 4
    (name_a, A), (name_b, B) = scen.operators
    c, s = math.cos(math.pi / 8), math.sin(math.pi / 8)
    base_a = c * np.eye(2) - 1j * s * moments.sigma_y
    base_b = c * np.eye(2) + 1j * s * moments.sigma_z
    assert np.allclose(A, moments.lift(base_a))
    assert np.allclose(B, moments.lift(base_b))


def test_ex4_state_is_purified_bloch_family():
    scen = scenarios.scenario("ex4")
    psi = scen.state(0.7)
    rho = moments.bloch_density([1 / 3, 2 / 3 * math.cos(0.7), 2 / 3 * math.sin(0.7)])
    kept = linalg.partial_trace(np.outer(psi.amplitudes, psi.amplitudes.conj()),
                                keep="second")
    assert np.max(np.abs(kept - rho.matrix)) < 1e-12


def test_ex5_state_at_pi():
    scen = scenarios.scenario("ex5")
    psi = scen.state(math.pi)
    assert np.allclose(psi.amplitudes, [0.0, math.sqrt(3) / 2, 0.5, 0.0], atol=1e-15)


def test_ex5_shift_repair_is_flagged():
    scen = scenarios.scenario("ex5")
    B = dict(scen.operators)["B"]
    assert np.allclose(B, scenarios.shift_operator(4))
    assert any("repair" in note for note in scen.notes)


def test_ex6_state_is_normalized_and_noted():
    scen = scenarios.scenario("ex6")
    theta = 1.3
    raw = np.array([math.sqrt(2) / 2 * math.cos(theta / 2),
                    math.sqrt(2) / 2 * math.sin(theta / 2),
                    -math.sin(theta / 2)])
    psi = scen.state(theta)
    assert np.allclose(psi.amplitudes, raw / np.linalg.norm(raw))
    assert any("normaliz" in note for note in scen.notes)
    assert len(scen.operators) == 3


def test_theta_grid_endpoints():
    grid = scenarios.theta_grid(0.0, math.pi, 5)
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(math.pi)
    assert len(grid) == 5
    assert scenarios.theta_grid(1.0, 2.0, 1) == [1.0]
    with refused("steps must be >= 1, got 0"):
        scenarios.theta_grid(1.0, 2.0, 0)


def test_theta_grid_refuses_an_empty_range():
    with refused("theta range is empty: 2.0 > 1.0"):
        scenarios.theta_grid(2.0, 1.0, 5)


@pytest.mark.parametrize("lo, hi, steps", [(0.0, 1e308, 3), (-1e308, 1e308, 2)])
def test_theta_grid_refuses_a_grid_that_overflows(lo, hi, steps):
    with refused(f"theta range {lo} to {hi} in {steps} steps leaves the finite range"):
        scenarios.theta_grid(lo, hi, steps)


def test_theta_grid_steps_error_wins_over_the_range_one():
    with refused("steps must be >= 1, got 0"):
        scenarios.theta_grid(2.0, 1.0, 0)


def test_ex1_internal_consistency_without_closed_forms():
    # Pipeline-level identity: the fine-grained endpoints agree with the
    # variance product and the correlation bound on the clock/shift family.
    for d in (2, 3, 6):
        scen = scenarios.scenario("ex1", d)
        A, B = (M for _, M in scen.operators)
        for theta in (0.3, 1.1, 2.0):
            psi = scen.state(theta)
            pair = modulus_pair(A, B, psi)
            seq = bounds.fine_grained_sequence(pair)
            vp = bounds.variance_product(pair)
            assert seq[0] == pytest.approx(vp, abs=1e-10)
            assert seq[-1] == pytest.approx(bounds.correlation_bound(pair), abs=1e-10)


def test_example1_reference_zero_angle_vanishes():
    ref = example1_reference(6, 0.0)
    assert max(ref.x) == 0.0
    assert ref.i_1 == ref.i_2 == ref.i_d == 0.0


def test_example1_reference_quarter_pi_value():
    d = 6
    ref = example1_reference(d, math.pi / 4)
    expected = abs(1 - cmath.exp(-2j * math.pi / d)) ** 2 * (0.5 ** 3) * 0.5
    assert ref.i_d == pytest.approx(expected, rel=1e-12)


def test_example1_reference_rejects_tiny_dimension():
    with refused("reference values need dimension >= 2, got 1"):
        example1_reference(1, 0.5)


def test_ex1_reference_and_paired_cross_bound_pair_different_coordinates():
    # The reference's i_1' pairs x_2 with x_d, paired_cross_bound pairs it with
    # x_3; which one the published bound means is open, so both are pinned.
    for d in range(3, 9):
        scen = scenarios.scenario("ex1", d)
        A, B = (M for _, M in scen.operators)
        gap = 0.0
        for theta in scenarios.theta_grid(*scen.theta_range, 200):
            ref = example1_reference(d, theta)
            x, y = ref.x, ref.y
            assert abs(ref.i_1_prime - (ref.i_1 - y[0] ** 2 * (x[1] - x[d - 1]) ** 2)) <= 1e-12
            pair = modulus_pair(A, B, scen.state(theta))
            cross = bounds.paired_cross_bound(pair)
            i_1 = bounds.variance_product(pair)
            assert abs(cross - (i_1 - pair.y[0] ** 2 * (pair.x[1] - pair.x[2]) ** 2)) <= 1e-12
            gap = max(gap, abs(cross - ref.i_1_prime))
        if d == 3:
            assert gap <= 1e-12
        else:
            assert gap > 1e-3, f"d={d}: the two pairings now agree ({gap!r})"


def test_scenarios_imports_only_moments_and_errors():
    # The examples are data; bounds and scenarios are siblings, neither built on the other.
    tree = ast.parse(Path(scenarios.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module is None:
                imported.update(alias.name for alias in node.names)
            else:
                imported.add(node.module.split(".")[0])
    assert imported == {"moments", "errors"}
