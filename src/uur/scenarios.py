"""Built-in example scenarios: operators, state families, reference values.

Six named scenarios (ex1..ex6) drive the CLI sweeps. ex1 and ex2 are the
generic clock/shift family at any dimension; ex3..ex6 are fixed-dimension
setups with explicitly listed matrices. Scenario values are immutable;
state builders are pure functions of the sweep angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import moments
from .errors import DimensionTooSmall, IncompatibleDimension, UnknownExample
from .moments import PureState

DEFAULT_DIMS = {"ex1": 6, "ex2": 4, "ex3": 3, "ex4": 2, "ex5": 4, "ex6": 3}
DEFAULT_STEPS = 200


def clock_operator(d: int) -> np.ndarray:
    """Diagonal phase operator diag(1, w, w^2, ..., w^(d-1)), w = e^(2 pi i/d)."""
    if d < 2:
        raise DimensionTooSmall(f"clock operator needs dimension >= 2, got {d}")
    return np.diag(np.exp(2j * np.pi * np.arange(d) / d))


def shift_operator(d: int) -> np.ndarray:
    """Cyclic shift |k> -> |k+1 mod d>; satisfies clock @ shift = w shift @ clock."""
    if d < 2:
        raise DimensionTooSmall(f"shift operator needs dimension >= 2, got {d}")
    return np.roll(np.eye(d, dtype=complex), 1, axis=0)


@dataclass(frozen=True)
class Scenario:
    """An example or a file problem: operators, states over theta (a file's ignore it), defaults."""

    id: str
    dimension: int
    operators: tuple[tuple[str, np.ndarray], ...]
    state_builder: Callable[[float], PureState]
    default_m: int
    theta_range: tuple[float, float]
    notes: tuple[str, ...] = field(default=())

    def state(self, theta: float) -> PureState:
        return self.state_builder(theta)


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
    return PureState(amplitudes=raw / np.linalg.norm(raw))


def _printed_a3() -> np.ndarray:
    # Phases (1, e^{i pi/2}, e^{3i pi/2}) as listed, not the d=3 clock phases.
    return np.diag([1.0, np.exp(1j * np.pi / 2), np.exp(3j * np.pi / 2)]).astype(complex)


def scenario(sid: str, d: int | None = None) -> Scenario:
    """Build a named scenario, checking the dimension is one it supports."""
    if sid not in DEFAULT_DIMS:
        raise UnknownExample(f"unknown example id {sid!r}; expected ex1..ex6")
    if d is None:
        d = DEFAULT_DIMS[sid]

    if sid == "ex1":
        return Scenario(
            id=sid, dimension=d,
            operators=(("A", clock_operator(d)), ("B", shift_operator(d))),
            state_builder=_ex1_state(d),
            default_m=max(1, d // 2), theta_range=(0.0, math.pi),
        )

    if sid == "ex2":
        if d < 3:
            raise IncompatibleDimension(f"ex2 needs dimension >= 3, got {d}")
        if d == 4:
            # Listed d=4 matrices win over the generic family: the last
            # phase is e^{4i pi/3}, not the clock's w^3 = e^{3i pi/2}.
            A = np.diag([1.0, np.exp(1j * np.pi / 2), np.exp(1j * np.pi),
                         np.exp(4j * np.pi / 3)]).astype(complex)
            notes = ("A uses the listed phase e^(4i pi/3) in the last slot, "
                     "differing from the generic clock operator",)
        else:
            A = clock_operator(d)
            notes = ()
        return Scenario(
            id=sid, dimension=d,
            operators=(("A", A), ("B", shift_operator(d))),
            state_builder=_ex2_state(d),
            default_m=max(1, d // 2), theta_range=(0.0, math.pi),
            notes=notes,
        )

    if sid == "ex3":
        if d != 3:
            raise IncompatibleDimension(f"ex3 is fixed at dimension 3, got {d}")
        return Scenario(
            id=sid, dimension=3,
            operators=(("A", _printed_a3()), ("B", shift_operator(3))),
            state_builder=_ex3_state,
            default_m=2, theta_range=(0.0, math.pi),
            notes=("A uses phases (1, e^(i pi/2), e^(3i pi/2)), "
                   "not the d=3 clock phases",),
        )

    if sid == "ex4":
        if d != 2:
            raise IncompatibleDimension(f"ex4 is fixed at qubit dimension 2, got {d}")
        c, s = math.cos(math.pi / 8), math.sin(math.pi / 8)
        A2 = c * np.eye(2, dtype=complex) - 1j * s * moments.sigma_y
        B2 = c * np.eye(2, dtype=complex) + 1j * s * moments.sigma_z
        return Scenario(
            id=sid, dimension=4,
            operators=(("A", moments.lift(A2)), ("B", moments.lift(B2))),
            state_builder=_ex4_state,
            default_m=2, theta_range=(0.0, 2 * math.pi),
            notes=("the qubit mixed state is purified to 4 dimensions and the "
                   "qubit operators act on the purified space as I (x) U",),
        )

    if sid == "ex5":
        if d != 4:
            raise IncompatibleDimension(f"ex5 is fixed at dimension 4, got {d}")
        C = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]],
                     dtype=complex)
        return Scenario(
            id=sid, dimension=4,
            operators=(("A", clock_operator(4)), ("B", shift_operator(4)), ("C", C)),
            state_builder=_ex5_state,
            default_m=2, theta_range=(0.0, 2 * math.pi),
            notes=("B repaired to the exact 4-cycle shift: the transcribed matrix "
                   "carried two entries in one column and was not unitary",),
        )

    if sid == "ex6":
        if d != 3:
            raise IncompatibleDimension(f"ex6 is fixed at dimension 3, got {d}")
        C = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
        return Scenario(
            id=sid, dimension=3,
            operators=(("A", _printed_a3()), ("B", shift_operator(3)), ("C", C)),
            state_builder=_ex6_state,
            default_m=2, theta_range=(0.0, 2 * math.pi),
            notes=("state amplitudes are normalized: the raw family "
                   "(sqrt(2)/2 cos(t/2), sqrt(2)/2 sin(t/2), -sin(t/2)) is not "
                   "unit length for general t",),
        )


@dataclass(frozen=True)
class Example1Reference:
    """Closed-form values for the ex1 family at one angle.

    Transcribed slot by slot: x_1, x_d and y_1, y_2, y_d are set in that
    order, so at d = 2 the y_2 and y_d slots collide and the later one wins.
    The comparison tests itemize where these forms drift from the numeric
    pipeline instead of silently reconciling them.
    """

    d: int
    theta: float
    x: np.ndarray
    y: np.ndarray
    i_1: float
    i_2: float
    i_d: float
    i_1_prime: float


def example1_reference(d: int, theta: float) -> Example1Reference:
    """Evaluate the ex1 closed forms at one angle."""
    if d < 2:
        raise DimensionTooSmall(f"reference values need dimension >= 2, got {d}")
    s, co = math.sin(theta), math.cos(theta)
    w = abs(1.0 - np.exp(-2j * np.pi / d))
    x = np.zeros(d)
    y = np.zeros(d)
    x[0] = w * abs(s * s * co)
    x[d - 1] = w * abs(s * co * co)
    y[0] = abs(s) ** 3
    y[1] = abs(co)
    y[d - 1] = abs(s * s * co)
    w2 = w * w
    return Example1Reference(
        d=d, theta=theta, x=x, y=y,
        i_1=w2 * abs(s ** 6 * co ** 2 + s ** 2 * co ** 4),
        i_2=w2 * abs(s ** 6 * co ** 2 + s ** 2 * co ** 6),
        i_d=w2 * abs(s ** 6 * co ** 2),
        i_1_prime=w2 * abs(s ** 8 * co ** 2 + s ** 6 * co ** 6 + s ** 2 * co ** 4),
    )


def theta_grid(lo: float, hi: float, steps: int) -> list[float]:
    """Evenly spaced sweep angles, inclusive of both ends when steps > 1."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if steps == 1:
        return [lo]
    return [lo + (hi - lo) * k / (steps - 1) for k in range(steps)]
