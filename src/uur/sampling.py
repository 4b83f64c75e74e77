"""Deterministic random instance generation for property suites.

Each trial draws from a Philox stream set by its key and counter (seed, trial,
stream) alone, so results never depend on trial order and reruns are bit-identical;
a suite re-keys one Philox per trial (trial_generators) instead of building one. A stack
of many trials' and suites' Gaussian matrices becomes unitary in one QR, bit for bit as one at a time.
"""

from __future__ import annotations

import numpy as np

from .moments import DensityMatrix, PureState


def trial_generator(seed: int, trial: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for one (seed, trial) cell.

    stream separates consumers that share a seed and trial index (different
    check suites, for instance) without any draw-order coupling.
    """
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, stream, trial]))


def trial_generators(seed: int, trials: int, stream: int):
    """(trial, generator) for trials 0..trials-1: one Philox re-keyed to each trial's counter with
    a spent buffer, so it draws what trial_generator(seed, trial, stream) would; use it before the next."""
    rng = trial_generator(seed, 0, stream)
    state = rng.bit_generator.state
    for trial in range(trials):
        state["state"]["counter"][3] = trial
        rng.bit_generator.state = state
        yield trial, rng


def complex_gaussians(rng: np.random.Generator, count: int, *shape: int) -> np.ndarray:
    """count complex Gaussian arrays of shape; each draws its real part, then its imaginary part."""
    G = rng.standard_normal((count, 2, *shape))
    return G[:, 0] + 1j * G[:, 1]


def haar_unitaries(Z: np.ndarray) -> np.ndarray:
    """Haar-style unitaries of a Gaussian stack (k, n, n): QR, then a phase-fixed diagonal (Mezzadri 2007)."""
    Q, R = np.linalg.qr(Z)
    diag = R.diagonal(axis1=-2, axis2=-1)[:, None, :]
    return Q * (diag / np.abs(diag))


def random_state(rng: np.random.Generator, n: int) -> PureState:
    """Normalized complex Gaussian vector."""
    v = complex_gaussians(rng, 1, n)[0]
    return PureState.normalized(v)


def random_density(rng: np.random.Generator, n: int) -> DensityMatrix:
    """Full-rank-ish random mixed state from a normalized Wishart draw."""
    Z = complex_gaussians(rng, 1, n, n)[0]
    M = Z @ Z.conj().T
    return DensityMatrix(matrix=M / M.trace().real)
