"""Tests for Statevector, ParameterizedCircuit, measurement and ansatz modules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quantum import (
    ParameterizedCircuit,
    Statevector,
    grouped_st_ansatz,
    marginal_probabilities,
    u3_cu3_ansatz,
    z_expectations,
)
from repro.quantum.ansatz import ansatz_parameter_count, u3_cu3_block
from repro.quantum.measurement import (
    all_probabilities,
    marginal_probabilities_backward,
    z_expectations_backward,
)


def _random_state(n_qubits, seed=0):
    rng = np.random.default_rng(seed)
    state = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    return state / np.linalg.norm(state)


class TestStatevector:
    def test_zero_state(self):
        state = Statevector.zero_state(3)
        assert state.n_qubits == 3
        assert state.probabilities()[0] == pytest.approx(1.0)

    def test_basis_state(self):
        state = Statevector.basis_state(2, 3)
        np.testing.assert_allclose(state.probabilities(), [0, 0, 0, 1])

    def test_normalisation_on_construction(self):
        state = Statevector([1.0, 1.0, 1.0, 1.0])
        assert state.norm() == pytest.approx(1.0)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            Statevector([1.0, 0.0, 0.0])

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            Statevector([0.0, 0.0])

    def test_rejects_unnormalised_when_flagged(self):
        with pytest.raises(ValueError):
            Statevector([2.0, 0.0], normalize=False)

    def test_apply_gate(self):
        from repro.quantum.gates import GATES
        out = Statevector.zero_state(1).apply(GATES["X"], (0,))
        np.testing.assert_allclose(out.amplitudes, [0.0, 1.0])

    def test_fidelity_self_is_one(self):
        state = Statevector(_random_state(3, 1), normalize=False)
        assert state.fidelity(state) == pytest.approx(1.0)

    def test_fidelity_orthogonal_is_zero(self):
        a = Statevector.basis_state(2, 0)
        b = Statevector.basis_state(2, 3)
        assert a.fidelity(b) == pytest.approx(0.0)

    def test_expectation_z_of_basis_states(self):
        assert Statevector.zero_state(1).expectation_z(0) == pytest.approx(1.0)
        assert Statevector.basis_state(1, 1).expectation_z(0) == pytest.approx(-1.0)

    def test_len(self):
        assert len(Statevector.zero_state(3)) == 8


class TestParameterizedCircuit:
    def test_add_fixed_gate(self):
        circuit = ParameterizedCircuit(2).add_gate("H", (0,)).add_gate("CNOT", (0, 1))
        assert len(circuit) == 2
        assert circuit.n_params == 0

    def test_add_parametric_allocates_params(self):
        circuit = ParameterizedCircuit(2)
        circuit.add_parametric_gate("U3", (0,))
        circuit.add_parametric_gate("CU3", (0, 1))
        assert circuit.n_params == 6

    def test_shared_parameters(self):
        circuit = ParameterizedCircuit(2)
        circuit.add_parametric_gate("RX", (0,))
        circuit.add_parametric_gate("RX", (1,), param_indices=(0,))
        assert circuit.n_params == 1

    def test_unknown_gate_raises(self):
        with pytest.raises(ValueError):
            ParameterizedCircuit(1).add_gate("BOGUS", (0,))
        with pytest.raises(ValueError):
            ParameterizedCircuit(1).add_parametric_gate("BOGUS", (0,))

    def test_qubit_validation(self):
        with pytest.raises(ValueError):
            ParameterizedCircuit(2).add_gate("H", (5,))
        with pytest.raises(ValueError):
            ParameterizedCircuit(2).add_gate("CNOT", (0, 0))
        with pytest.raises(ValueError):
            ParameterizedCircuit(2).add_gate("CNOT", (0,))

    def test_run_preserves_norm(self):
        circuit = u3_cu3_ansatz(3, n_blocks=2)
        params = np.random.default_rng(0).normal(size=circuit.n_params)
        out = circuit.run(_random_state(3, 2), params)
        assert np.linalg.norm(out) == pytest.approx(1.0)

    def test_run_validates_lengths(self):
        circuit = u3_cu3_ansatz(2, n_blocks=1)
        with pytest.raises(ValueError):
            circuit.run(np.ones(3, dtype=complex), np.zeros(circuit.n_params))
        with pytest.raises(ValueError):
            circuit.run(_random_state(2), np.zeros(circuit.n_params + 1))

    def test_identity_params_give_identity_u3(self):
        circuit = ParameterizedCircuit(2)
        circuit.add_parametric_gate("U3", (0,))
        circuit.add_parametric_gate("U3", (1,))
        state = _random_state(2, 3)
        out = circuit.run(state, np.zeros(circuit.n_params))
        np.testing.assert_allclose(out, state, atol=1e-12)

    def test_extend_reindexes_parameters(self):
        a = ParameterizedCircuit(2)
        a.add_parametric_gate("RX", (0,))
        b = ParameterizedCircuit(2)
        b.add_parametric_gate("RY", (1,))
        a.extend(b)
        assert a.n_params == 2
        assert a.ops[1].param_indices == (1,)

    def test_extend_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            ParameterizedCircuit(2).extend(ParameterizedCircuit(3))

    def test_depth_estimate_positive(self):
        circuit = u3_cu3_ansatz(4, n_blocks=2)
        assert circuit.depth_estimate() >= 2


class TestAnsatz:
    def test_parameter_count_matches_paper(self):
        """8 qubits x 12 blocks is the paper's 576-parameter configuration."""
        circuit = u3_cu3_ansatz(8, n_blocks=12)
        assert circuit.n_params == 576
        assert ansatz_parameter_count(8, 12) == 576

    def test_parameter_count_formula(self):
        for n_qubits in (2, 3, 5):
            for n_blocks in (1, 4):
                circuit = u3_cu3_ansatz(n_qubits, n_blocks=n_blocks)
                assert circuit.n_params == ansatz_parameter_count(n_qubits, n_blocks)

    def test_single_qubit_ansatz_has_no_entanglers(self):
        circuit = u3_cu3_ansatz(1, n_blocks=3)
        assert all(op.name == "U3" for op in circuit.ops)

    def test_block_on_subset_leaves_other_qubits_alone(self):
        circuit = ParameterizedCircuit(4)
        u3_cu3_block(circuit, (1, 2))
        touched = {q for op in circuit.ops for q in op.qubits}
        assert touched == {1, 2}

    def test_ansatz_on_subset_for_qubatch(self):
        circuit = u3_cu3_ansatz(5, n_blocks=2, qubits=(1, 2, 3, 4))
        touched = {q for op in circuit.ops for q in op.qubits}
        assert 0 not in touched

    def test_grouped_ansatz_entangles_groups(self):
        groups = [(0, 1), (2, 3)]
        circuit = grouped_st_ansatz(groups, 4, n_blocks=1, inter_group_blocks=1)
        cross = [op for op in circuit.ops
                 if len(op.qubits) == 2 and
                 ((op.qubits[0] in groups[0]) != (op.qubits[1] in groups[0]))]
        assert cross, "expected at least one cross-group entangling gate"

    def test_grouped_ansatz_requires_groups(self):
        with pytest.raises(ValueError):
            grouped_st_ansatz([], 4)

    def test_invalid_blocks_raise(self):
        with pytest.raises(ValueError):
            u3_cu3_ansatz(3, n_blocks=0)


class TestMeasurement:
    def test_z_expectation_of_basis_states(self):
        state = np.zeros(4, dtype=complex)
        state[0] = 1.0  # |00>
        np.testing.assert_allclose(z_expectations(state, [0, 1], 2), [1.0, 1.0])
        state = np.zeros(4, dtype=complex)
        state[3] = 1.0  # |11>
        np.testing.assert_allclose(z_expectations(state, [0, 1], 2), [-1.0, -1.0])

    def test_z_expectation_of_superposition(self):
        state = np.array([1.0, 1.0, 0.0, 0.0], dtype=complex) / np.sqrt(2)
        np.testing.assert_allclose(z_expectations(state, [0, 1], 2), [1.0, 0.0],
                                   atol=1e-12)

    def test_z_expectation_bounds(self):
        state = _random_state(4, 9)
        values = z_expectations(state, range(4), 4)
        assert np.all(np.abs(values) <= 1.0 + 1e-12)

    def test_marginal_probabilities_sum_to_one(self):
        state = _random_state(4, 10)
        probs = marginal_probabilities(state, (1, 3), 4)
        assert probs.shape == (4,)
        assert probs.sum() == pytest.approx(1.0)

    def test_marginal_of_all_qubits_is_full_distribution(self):
        state = _random_state(3, 11)
        probs = marginal_probabilities(state, (0, 1, 2), 3)
        np.testing.assert_allclose(probs, np.abs(state) ** 2)

    def test_marginal_qubit_order_matters(self):
        state = np.zeros(4, dtype=complex)
        state[1] = 1.0  # |01>: qubit0=0, qubit1=1
        np.testing.assert_allclose(marginal_probabilities(state, (0, 1), 2),
                                   [0, 1, 0, 0])
        np.testing.assert_allclose(marginal_probabilities(state, (1, 0), 2),
                                   [0, 0, 1, 0])

    def test_all_probabilities(self):
        state = _random_state(3, 12)
        np.testing.assert_allclose(all_probabilities(state), np.abs(state) ** 2)

    def test_invalid_qubits_raise(self):
        state = _random_state(2, 13)
        with pytest.raises(ValueError):
            z_expectations(state, [5], 2)
        with pytest.raises(ValueError):
            marginal_probabilities(state, (0, 0), 2)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_z_backward_matches_finite_difference(self, seed):
        n = 3
        state = _random_state(n, seed)
        rng = np.random.default_rng(seed + 1)
        grad_out = rng.normal(size=n)

        def loss(psi):
            return float(np.dot(grad_out, z_expectations(psi, range(n), n)))

        lam = z_expectations_backward(state, range(n), n, grad_out)
        # Directional derivative check: L(psi + eps*d) for a random direction.
        direction = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        epsilon = 1e-7
        numeric = (loss(state + epsilon * direction) -
                   loss(state - epsilon * direction)) / (2 * epsilon)
        analytic = 2 * np.real(np.vdot(lam, direction))
        assert numeric == pytest.approx(analytic, rel=1e-4, abs=1e-7)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_marginal_backward_matches_finite_difference(self, seed):
        n = 3
        qubits = (0, 2)
        state = _random_state(n, seed)
        rng = np.random.default_rng(seed + 2)
        grad_out = rng.normal(size=4)

        def loss(psi):
            return float(np.dot(grad_out, marginal_probabilities(psi, qubits, n)))

        lam = marginal_probabilities_backward(state, qubits, n, grad_out)
        direction = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        epsilon = 1e-7
        numeric = (loss(state + epsilon * direction) -
                   loss(state - epsilon * direction)) / (2 * epsilon)
        analytic = 2 * np.real(np.vdot(lam, direction))
        assert numeric == pytest.approx(analytic, rel=1e-4, abs=1e-7)
