from __future__ import annotations

import numpy as np

from uur import linalg, sampling

from oracles import per_matrix_instance, random_density, random_state, random_unitary, sampled_items


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


def test_haar_unitaries_are_unitary():
    gen = sampling.trial_generator(seed=1, trial=0)
    for d in (2, 3, 5, 8):
        for U in sampling.haar_unitaries(sampling.complex_gaussians(gen, 3, d, d)):
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


def test_one_stack_draws_what_per_matrix_draws_drew():
    # A trial's count matrices drawn as one Gaussian stack, then its state,
    # equal count per-matrix draws and the state bit for bit; several
    # trials of one dimension share one QR.
    cases = 0
    for n in range(2, 9):
        for count in range(1, 5):
            stacks, want = [], []
            for seed, trial in ((0, 0), (1, 5), (42, 3), (2 ** 31 - 1, 1000), (7, 12)):
                ops, psi = per_matrix_instance(seed, trial, n, count, n)
                rng = sampling.trial_generator(seed, trial, n)
                stacks.append(sampling.complex_gaussians(rng, count, n, n))
                assert np.array_equal(sampling.random_state(rng, n).amplitudes, psi.amplitudes)
                want += ops
            got = sampling.haar_unitaries(np.concatenate(stacks))
            assert got.shape == (len(want), n, n)
            for U, V in zip(got, want):
                assert np.array_equal(U, V)
                cases += 1
    assert cases == 7 * 10 * 5


def test_random_state_and_density_draw_what_per_matrix_draws_drew():
    # After a stack of three unitaries, as after three per-matrix draws.
    for n in (2, 3, 8):
        gen, ref = sampling.trial_generator(9, n), sampling.trial_generator(9, n)
        stack = sampling.haar_unitaries(sampling.complex_gaussians(gen, 3, n, n))
        assert np.array_equal(stack, [random_unitary(ref, n) for _ in range(3)])
        assert np.array_equal(sampling.random_state(gen, n).amplitudes,
                              random_state(ref, n).amplitudes)
        assert np.array_equal(sampling.random_density(gen, n).matrix,
                              random_density(ref, n).matrix)


def mixed_draws(rng, trial):
    # Draw sizes that stop mid-buffer, and a 32-bit draw that leaves half a
    # word: the next trial's re-key must discard both.
    k = 1 + trial % 5
    return [rng.standard_normal(k), rng.uniform(0.0, np.pi, 3), rng.integers(0, 9, k, dtype=np.int32),
            rng.standard_normal((k, 2, 2)), np.array([rng.uniform()])]


def test_rekeyed_generators_draw_what_fresh_generators_draw():
    for stream in [*range(13), 31]:
        for seed in (0, 42, 2 ** 31 - 1):
            for trial, rng in sampling.trial_generators(seed, 12, stream):
                want = mixed_draws(sampling.trial_generator(seed, trial, stream), trial)
                got = mixed_draws(rng, trial)
                assert all(np.array_equal(a, b) for a, b in zip(want, got, strict=True))


def test_rekeyed_generators_share_one_philox_per_stream():
    gens = list(sampling.trial_generators(5, 4, 3))
    assert [trial for trial, _ in gens] == [0, 1, 2, 3]
    assert len({id(rng) for _, rng in gens}) == 1
    assert isinstance(gens[0][1].bit_generator, np.random.Philox)


def test_sampled_draws_past_the_block_boundary_as_fresh_generators():
    # A toy draw (one 2x2 Gaussian stack, then three uniforms) across the
    # 64-trial block: each trial's rest and unitary as from its own generator.
    def draw(rng, trial):
        return sampling.complex_gaussians(rng, 1, 2, 2), rng.uniform(size=3)

    trials = 66
    got = sampled_items(7, trials, 11, draw)
    assert [trial for trial, _, _ in got] == list(range(trials))
    for trial in (0, 1, 63, 64, 65):
        _, (U,), rest = got[trial]
        G, want = draw(sampling.trial_generator(7, trial, 11), trial)
        assert np.array_equal(rest, want)
        assert np.array_equal(U.matrix, sampling.haar_unitaries(G)[0])
