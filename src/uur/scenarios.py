"""Built-in example scenarios: operators, state families, theta grids.

Six named scenarios (ex1..ex6) drive the CLI sweeps. ex1 and ex2 are the
generic clock/shift family at any dimension; ex3..ex6 are fixed-dimension
setups with explicitly listed matrices. Scenario values are immutable;
a scenario's `state` is a pure function of the sweep angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import moments
from .errors import UurError
from .moments import PureState

DEFAULT_DIMS = {"ex1": 6, "ex2": 4, "ex3": 3, "ex4": 2, "ex5": 4, "ex6": 3}
DEFAULT_STEPS = 200


def clock_operator(d: int) -> np.ndarray:
    """Diagonal phase operator diag(1, w, w^2, ..., w^(d-1)), w = e^(2 pi i/d)."""
    if d < 2:
        raise UurError(f"clock operator needs dimension >= 2, got {d}")
    return np.diag(np.exp(2j * np.pi * np.arange(d) / d))


def shift_operator(d: int) -> np.ndarray:
    """Cyclic shift |k> -> |k+1 mod d>; satisfies clock @ shift = w shift @ clock."""
    if d < 2:
        raise UurError(f"shift operator needs dimension >= 2, got {d}")
    return np.eye(d, dtype=complex)[np.arange(-1, d - 1)]  # row k is row k - 1 (mod d) of I


@dataclass(frozen=True)
class Scenario:
    """An example or a file problem: operators, states over theta (a file's ignore it), defaults."""

    id: str
    dimension: int
    operators: tuple[tuple[str, np.ndarray], ...]
    state: Callable[[float], PureState]
    default_m: int
    theta_range: tuple[float, float]
    notes: tuple[str, ...] = field(default=())


def _ex1_state(d: int):
    def build(theta: float) -> PureState:
        a = np.zeros(d, dtype=complex)
        a[0] = math.cos(theta)
        a[d - 1] = -math.sin(theta)
        return PureState(amplitudes=a)

    return build


def _ex2_state(d: int):
    def build(theta: float) -> PureState:
        a = np.full(d, math.cos(theta) / math.sqrt(d - 1), dtype=complex)
        a[d - 1] = -math.sin(theta)
        return PureState(amplitudes=a)

    return build


def _ex3_state(theta: float) -> PureState:
    h = math.sqrt(2) / 2
    return PureState(amplitudes=np.array(
        [h * math.cos(theta), h * math.cos(theta), math.sin(theta)], dtype=complex))


def _ex4_state(theta: float) -> PureState:
    r = (1.0 / 3.0, 2.0 / 3.0 * math.cos(theta), 2.0 / 3.0 * math.sin(theta))
    return moments.purify(moments.bloch_density(r))


def _ex5_state(theta: float) -> PureState:
    return PureState(amplitudes=np.array([
        0.5 * math.cos(theta / 2),
        math.sqrt(3) / 2 * math.sin(theta / 2),
        0.5 * math.sin(theta / 2),
        math.sqrt(3) / 2 * math.cos(theta / 2),
    ], dtype=complex))


def _ex6_state(theta: float) -> PureState:
    h = math.sqrt(2) / 2
    raw = np.array([h * math.cos(theta / 2), h * math.sin(theta / 2),
                    -math.sin(theta / 2)], dtype=complex)
    return PureState.normalized(raw)


def _printed_a3() -> np.ndarray:
    # Phases (1, e^{i pi/2}, e^{3i pi/2}) as listed, not the d=3 clock phases.
    return np.diag([1.0, np.exp(1j * np.pi / 2), np.exp(3j * np.pi / 2)]).astype(complex)


# Each fixed example's builder returns (operators, state family, end of the
# theta range, notes); its dimension is the one in DEFAULT_DIMS.
def _ex3():
    return ((("A", _printed_a3()), ("B", shift_operator(3))), _ex3_state, math.pi,
            ("A uses phases (1, e^(i pi/2), e^(3i pi/2)), not the d=3 clock phases",))


def _ex4():
    c, s = math.cos(math.pi / 8), math.sin(math.pi / 8)
    A2 = c * np.eye(2, dtype=complex) - 1j * s * moments.sigma_y
    B2 = c * np.eye(2, dtype=complex) + 1j * s * moments.sigma_z
    return ((("A", moments.lift(A2)), ("B", moments.lift(B2))), _ex4_state, 2 * math.pi,
            ("the qubit mixed state is purified to 4 dimensions and the "
             "qubit operators act on the purified space as I (x) U",))


def _ex5():
    C = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]], dtype=complex)
    return ((("A", clock_operator(4)), ("B", shift_operator(4)), ("C", C)), _ex5_state,
            2 * math.pi, ("B repaired to the exact 4-cycle shift: the transcribed matrix "
                          "carried two entries in one column and was not unitary",))


def _ex6():
    C = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
    return ((("A", _printed_a3()), ("B", shift_operator(3)), ("C", C)), _ex6_state,
            2 * math.pi, ("state amplitudes are normalized: the raw family "
                          "(sqrt(2)/2 cos(t/2), sqrt(2)/2 sin(t/2), -sin(t/2)) is not "
                          "unit length for general t",))


_FIXED_EXAMPLES = {"ex3": _ex3, "ex4": _ex4, "ex5": _ex5, "ex6": _ex6}


def scenario(sid: str, d: int | None = None) -> Scenario:
    """Build a named scenario, checking the dimension is one it supports."""
    if sid not in DEFAULT_DIMS:
        raise UurError(f"unknown example id {sid!r}; expected ex1..ex6")
    if d is None:
        d = DEFAULT_DIMS[sid]
    if sid in _FIXED_EXAMPLES:
        if d != DEFAULT_DIMS[sid]:
            kind = "qubit dimension" if sid == "ex4" else "dimension"
            raise UurError(f"{sid} is fixed at {kind} {DEFAULT_DIMS[sid]}, got {d}")
        operators, state, theta_max, notes = _FIXED_EXAMPLES[sid]()
        default_m = 2
    else:
        if sid == "ex2" and d < 3:
            raise UurError(f"ex2 needs dimension >= 3, got {d}")
        if sid == "ex2" and d == 4:
            # Listed d=4 matrices win over the generic family: the last
            # phase is e^{4i pi/3}, not the clock's w^3 = e^{3i pi/2}.
            A = np.diag([1.0, np.exp(1j * np.pi / 2), np.exp(1j * np.pi),
                         np.exp(4j * np.pi / 3)]).astype(complex)
            notes = ("A uses the listed phase e^(4i pi/3) in the last slot, "
                     "differing from the generic clock operator",)
        else:
            A, notes = clock_operator(d), ()
        operators = (("A", A), ("B", shift_operator(d)))
        state = (_ex1_state if sid == "ex1" else _ex2_state)(d)
        theta_max, default_m = math.pi, max(1, d // 2)
    return Scenario(id=sid, dimension=len(operators[0][1]), operators=operators,
                    state=state, default_m=default_m,
                    theta_range=(0.0, theta_max), notes=notes)


def theta_grid(lo: float, hi: float, steps: int) -> list[float]:
    """Evenly spaced sweep angles, inclusive of both ends when steps > 1."""
    if steps < 1:
        raise UurError(f"steps must be >= 1, got {steps}")
    if steps == 1:
        return [lo]
    return [lo + (hi - lo) * k / (steps - 1) for k in range(steps)]
