"""Deterministic random instance generation for property suites.

Every trial gets its own counter-based generator keyed by (seed, trial), so
results never depend on the order trials run in and reruns with the same
seed are bit-identical. A trial draws its own Gaussian matrices; a whole
stack of them becomes unitary with one QR, bit for bit as one at a time.
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


def complex_gaussians(rng: np.random.Generator, count: int, *shape: int) -> np.ndarray:
    """count complex Gaussian arrays of shape; each draws its real part, then its imaginary part."""
    G = rng.standard_normal((count, 2, *shape))
    return G[:, 0] + 1j * G[:, 1]


def haar_unitaries(Z: np.ndarray) -> np.ndarray:
    """Haar-style unitaries of a Gaussian stack (k, n, n): QR, then a phase-fixed diagonal (Mezzadri 2007)."""
    Q, R = np.linalg.qr(Z)
    diag = np.diagonal(R, axis1=-2, axis2=-1)[:, None, :]
    return Q * (diag / np.abs(diag))


def random_state(rng: np.random.Generator, n: int) -> PureState:
    """Normalized complex Gaussian vector."""
    v = complex_gaussians(rng, 1, n)[0]
    return PureState(amplitudes=v / np.linalg.norm(v))


def random_density(rng: np.random.Generator, n: int) -> DensityMatrix:
    """Full-rank-ish random mixed state from a normalized Wishart draw."""
    Z = complex_gaussians(rng, 1, n, n)[0]
    M = Z @ Z.conj().T
    return DensityMatrix(matrix=M / np.real(np.trace(M)))
