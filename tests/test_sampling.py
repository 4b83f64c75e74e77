from __future__ import annotations

import numpy as np

from uur import linalg, sampling


def test_trial_generator_is_reproducible():
    a = sampling.trial_generator(seed=5, trial=3).normal(size=8)
    b = sampling.trial_generator(seed=5, trial=3).normal(size=8)
    assert np.array_equal(a, b)


def test_trial_generator_separates_cells():
    base = sampling.trial_generator(seed=5, trial=3).normal(size=8)
    other_trial = sampling.trial_generator(seed=5, trial=4).normal(size=8)
    other_seed = sampling.trial_generator(seed=6, trial=3).normal(size=8)
    other_stream = sampling.trial_generator(seed=5, trial=3, stream=1).normal(size=8)
    assert not np.array_equal(base, other_trial)
    assert not np.array_equal(base, other_seed)
    assert not np.array_equal(base, other_stream)


def test_random_unitary_is_unitary():
    gen = sampling.trial_generator(seed=1, trial=0)
    for d in (2, 3, 5, 8):
        U = sampling.random_unitary(gen, d)
        assert linalg.unitary_deviation(U) <= 1e-12


def test_random_state_unit_norm():
    gen = sampling.trial_generator(seed=1, trial=1)
    for d in (2, 4, 7):
        psi = sampling.random_state(gen, d)
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12


def test_random_density_is_valid():
    gen = sampling.trial_generator(seed=1, trial=2)
    rho = sampling.random_density(gen, 4)
    assert abs(np.trace(rho.matrix) - 1.0) < 1e-12
    assert np.min(np.linalg.eigvalsh(rho.matrix)) > -1e-12
