"""Tests for finite-shot (sampled) measurement estimates.

The finite-shot readout draws one :func:`sampled_probabilities` estimate and
decodes it with the exact decoders' ``*_from_probabilities`` forms; the
tests below exercise that composition.
"""

import numpy as np
import pytest

from repro.quantum.measurement import (
    marginal_probabilities,
    marginal_probabilities_from_probabilities,
    sample_counts,
    sampled_probabilities,
    z_expectations,
    z_expectations_from_probabilities,
)


def _sampled_z(state, qubits, n_qubits, n_shots, rng):
    return z_expectations_from_probabilities(
        sampled_probabilities(state, n_shots, rng=rng), qubits, n_qubits)


def _sampled_marginals(state, qubits, n_qubits, n_shots, rng):
    return marginal_probabilities_from_probabilities(
        sampled_probabilities(state, n_shots, rng=rng), qubits, n_qubits)


def _random_state(n_qubits, seed=0):
    rng = np.random.default_rng(seed)
    state = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    return state / np.linalg.norm(state)


class TestSampling:
    def test_counts_sum_to_shots(self):
        counts = sample_counts(_random_state(3), n_shots=500, rng=0)
        assert counts.sum() == 500
        assert counts.size == 8

    def test_deterministic_state_always_same_outcome(self):
        state = np.zeros(4, dtype=complex)
        state[2] = 1.0
        counts = sample_counts(state, n_shots=100, rng=1)
        assert counts[2] == 100

    def test_invalid_shots(self):
        with pytest.raises(ValueError):
            sample_counts(_random_state(2), n_shots=0)

    def test_sampled_probabilities_converge(self):
        state = _random_state(3, seed=2)
        exact = np.abs(state) ** 2
        estimate = sampled_probabilities(state, n_shots=20_000, rng=3)
        assert np.abs(estimate - exact).max() < 0.02

    def test_sampled_z_expectations_converge(self):
        state = _random_state(4, seed=4)
        exact = z_expectations(state, range(4), 4)
        estimate = _sampled_z(state, range(4), 4, n_shots=20_000, rng=5)
        np.testing.assert_allclose(estimate, exact, atol=0.03)

    def test_sampled_z_bounds(self):
        values = _sampled_z(_random_state(3, 6), range(3), 3, n_shots=100,
                            rng=7)
        assert np.all(np.abs(values) <= 1.0)

    def test_sampled_z_validates_inputs(self):
        with pytest.raises(ValueError):
            _sampled_z(_random_state(2), [5], 2, n_shots=10, rng=0)
        with pytest.raises(ValueError):
            _sampled_z(np.ones(3, dtype=complex), [0], 2, n_shots=10, rng=0)

    def test_reproducible_with_seed(self):
        state = _random_state(3, seed=8)
        a = sample_counts(state, 200, rng=9)
        b = sample_counts(state, 200, rng=9)
        np.testing.assert_array_equal(a, b)


class TestSeededDeterminism:
    """The documented contract: same (state, n_shots, seed) -> same bits."""

    def test_sample_counts_accepts_seed_sequence(self):
        state = _random_state(3, seed=8)
        seq = np.random.SeedSequence(11, spawn_key=(4,))
        a = sample_counts(state, 200, rng=seq)
        b = sample_counts(state, 200,
                          rng=np.random.SeedSequence(11, spawn_key=(4,)))
        np.testing.assert_array_equal(a, b)

    def test_seed_int_and_equivalent_generator_agree(self):
        state = _random_state(4, seed=10)
        from_int = sample_counts(state, 300, rng=12)
        from_gen = sample_counts(state, 300, rng=np.random.default_rng(12))
        np.testing.assert_array_equal(from_int, from_gen)

    def test_sampled_helpers_bit_identical_under_fixed_seed(self):
        state = _random_state(4, seed=13)
        for draw in (lambda rng: sampled_probabilities(state, 500, rng=rng),
                     lambda rng: _sampled_z(state, range(4), 4, n_shots=500,
                                            rng=rng),
                     lambda rng: _sampled_marginals(state, [0, 2], 4,
                                                    n_shots=500, rng=rng)):
            np.testing.assert_array_equal(draw(14), draw(14))

    def test_spawned_streams_are_independent(self):
        state = _random_state(3, seed=15)
        root = np.random.SeedSequence(16)
        a = sample_counts(state, 500,
                          rng=np.random.SeedSequence(16, spawn_key=(0,)))
        b = sample_counts(state, 500,
                          rng=np.random.SeedSequence(16, spawn_key=(1,)))
        c = sample_counts(state, 500, rng=root)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestFromProbabilitiesDecoders:
    """Exact and shot-estimated probability vectors share one decode path."""

    def test_z_from_probabilities_matches_statevector_path(self):
        state = _random_state(4, seed=17)
        exact = z_expectations(state, range(4), 4)
        via_probs = z_expectations_from_probabilities(
            np.abs(state) ** 2, range(4), 4)
        np.testing.assert_allclose(via_probs, exact, atol=1e-12)

    def test_marginal_from_probabilities_matches_statevector_path(self):
        state = _random_state(4, seed=18)
        exact = marginal_probabilities(state, [1, 3], 4)
        via_probs = marginal_probabilities_from_probabilities(
            np.abs(state) ** 2, [1, 3], 4)
        np.testing.assert_allclose(via_probs, exact, atol=1e-12)

    def test_sampled_marginals_converge_to_exact(self):
        state = _random_state(4, seed=19)
        exact = marginal_probabilities(state, [0, 1], 4)
        estimate = _sampled_marginals(state, [0, 1], 4, n_shots=20_000,
                                      rng=20)
        np.testing.assert_allclose(estimate, exact, atol=0.02)

    def test_from_probabilities_validates_length(self):
        with pytest.raises(ValueError):
            z_expectations_from_probabilities(np.ones(5) / 5.0, [0], 2)
        with pytest.raises(ValueError):
            marginal_probabilities_from_probabilities(np.ones(3) / 3.0,
                                                      [0], 2)
