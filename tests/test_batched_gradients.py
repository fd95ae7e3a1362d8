"""Parity tests for the batched adjoint gradient path.

The contract: :func:`repro.quantum.autodiff.circuit_gradients_batched` (and
the model/trainer layers built on it) must produce the same losses and
gradients for every row of a batch as for that sample alone, and match the
finite-difference ground truth, on both engines, for both decoders and for
grouped and ungrouped ansätze.  Oracles at the paper's depth and per gate
live in ``test_gradient_oracles.py``.
"""

import numpy as np
import pytest

from repro.backends import EinsumBatchBackend, NumpyLoopBackend
from repro.core.config import QuGeoVQCConfig, TrainingConfig
from repro.core.training import QuantumTrainer, evaluate_predictions
from repro.core.vqc_model import QuGeoVQC
from repro.data.dataset import FWIDataset, FWISample
from repro.metrics import ssim, ssim_map
from repro.quantum import (
    amplitude_encode,
    circuit_gradients,
    circuit_gradients_batched,
    grouped_st_ansatz,
    u3_cu3_ansatz,
)
from repro.quantum.autodiff import finite_difference_gradients
from repro.quantum.measurement import (
    marginal_probabilities,
    marginal_probabilities_backward,
    marginal_probabilities_backward_batched,
    marginal_probabilities_batched,
    z_expectations,
    z_expectations_backward,
    z_expectations_backward_batched,
    z_expectations_batched,
)

#: The per-gate oracle and the default engine, as instances.
ENGINES = (pytest.param(NumpyLoopBackend(), id="numpy"),
           pytest.param(EinsumBatchBackend(), id="einsum"))


def _random_states(n_qubits, batch, rng):
    return np.stack([amplitude_encode(rng.normal(size=2**n_qubits), n_qubits)
                     for _ in range(batch)])


def _expectation_heads(n_qubits, targets):
    """Per-sample and batched Q-M-LY-style loss heads sharing ``targets``."""

    def single(target):
        def head(psi):
            z = z_expectations(psi, range(n_qubits), n_qubits)
            diff = (z + 1.0) / 2.0 - target
            loss = float(np.mean(diff**2))
            grad = diff * (2.0 / diff.size) * 0.5
            return loss, z_expectations_backward(psi, range(n_qubits),
                                                 n_qubits, grad)
        return head

    def batched(outputs):
        z = z_expectations_batched(outputs, range(n_qubits), n_qubits)
        diff = (z + 1.0) / 2.0 - targets
        losses = np.mean(diff**2, axis=1)
        grads = diff * (2.0 / n_qubits) * 0.5
        return losses, z_expectations_backward_batched(outputs, range(n_qubits),
                                                       n_qubits, grads)

    return single, batched


def _probability_heads(n_qubits, qubits, targets):
    """Per-sample and batched Q-M-PX-style loss heads sharing ``targets``."""

    def single(target):
        def head(psi):
            probs = marginal_probabilities(psi, qubits, n_qubits)
            diff = probs - target
            loss = float(np.sum(diff**2))
            return loss, marginal_probabilities_backward(psi, qubits, n_qubits,
                                                         2 * diff)
        return head

    def batched(outputs):
        probs = marginal_probabilities_batched(outputs, qubits, n_qubits)
        diff = probs - targets
        losses = np.sum(diff**2, axis=1)
        return losses, marginal_probabilities_backward_batched(
            outputs, qubits, n_qubits, 2 * diff)

    return single, batched


class TestBatchedMeasurementHeads:
    """The batched read-out heads must match their per-sample twins."""

    @pytest.mark.parametrize("qubits", [(0,), (2, 0), (1, 3, 2)])
    def test_z_expectations_batched(self, qubits):
        rng = np.random.default_rng(0)
        states = _random_states(4, 5, rng)
        batched = z_expectations_batched(states, qubits, 4)
        singles = np.stack([z_expectations(state, qubits, 4)
                            for state in states])
        np.testing.assert_allclose(batched, singles, atol=1e-14)

    @pytest.mark.parametrize("qubits", [(0,), (2, 0), (1, 3, 2)])
    def test_marginal_probabilities_batched(self, qubits):
        rng = np.random.default_rng(1)
        states = _random_states(4, 5, rng)
        batched = marginal_probabilities_batched(states, qubits, 4)
        singles = np.stack([marginal_probabilities(state, qubits, 4)
                            for state in states])
        np.testing.assert_allclose(batched, singles, atol=1e-14)

    def test_backward_rules_batched(self):
        rng = np.random.default_rng(2)
        states = _random_states(3, 4, rng)
        z_grads = rng.normal(size=(4, 2))
        batched = z_expectations_backward_batched(states, (0, 2), 3, z_grads)
        singles = np.stack([z_expectations_backward(state, (0, 2), 3, grad)
                            for state, grad in zip(states, z_grads)])
        np.testing.assert_allclose(batched, singles, atol=1e-14)

        m_grads = rng.normal(size=(4, 4))
        batched = marginal_probabilities_backward_batched(states, (1, 0), 3,
                                                          m_grads)
        singles = np.stack(
            [marginal_probabilities_backward(state, (1, 0), 3, grad)
             for state, grad in zip(states, m_grads)])
        np.testing.assert_allclose(batched, singles, atol=1e-14)

    def test_invalid_qubit_raises(self):
        states = np.zeros((2, 8), dtype=complex)
        with pytest.raises(ValueError):
            z_expectations_batched(states, (5,), 3)
        with pytest.raises(ValueError):
            marginal_probabilities_batched(states, (0, 0), 3)


class TestCircuitGradientsBatched:
    @pytest.mark.parametrize("backend", ENGINES)
    @pytest.mark.parametrize("batch", [1, 5])
    def test_matches_per_sample_adjoint_expectation_loss(self, backend, batch):
        rng = np.random.default_rng(10)
        n = 3
        circuit = u3_cu3_ansatz(n, n_blocks=2)
        params = rng.normal(size=circuit.n_params)
        states = _random_states(n, batch, rng)
        targets = rng.random((batch, n))
        single, batched = _expectation_heads(n, targets)

        losses, grads = circuit_gradients_batched(circuit, params, states,
                                                  batched, backend=backend)
        assert losses.shape == (batch,)
        assert grads.shape == (batch, circuit.n_params)
        for b in range(batch):
            loss_s, grad_s = circuit_gradients(circuit, params, states[b],
                                               single(targets[b]),
                                               backend=backend)
            assert losses[b] == pytest.approx(loss_s, abs=1e-12)
            np.testing.assert_allclose(grads[b], grad_s, atol=1e-10)

    @pytest.mark.parametrize("backend", ENGINES)
    def test_matches_per_sample_adjoint_probability_loss(self, backend):
        rng = np.random.default_rng(11)
        n, batch = 3, 4
        circuit = u3_cu3_ansatz(n, n_blocks=2)
        params = rng.normal(size=circuit.n_params)
        states = _random_states(n, batch, rng)
        targets = rng.random((batch, 4))
        single, batched = _probability_heads(n, (0, 1), targets)

        losses, grads = circuit_gradients_batched(circuit, params, states,
                                                  batched, backend=backend)
        for b in range(batch):
            loss_s, grad_s = circuit_gradients(circuit, params, states[b],
                                               single(targets[b]),
                                               backend=backend)
            assert losses[b] == pytest.approx(loss_s, abs=1e-12)
            np.testing.assert_allclose(grads[b], grad_s, atol=1e-10)

    @pytest.mark.parametrize("backend", ENGINES)
    def test_matches_finite_difference(self, backend):
        rng = np.random.default_rng(12)
        n, batch = 3, 3
        circuit = u3_cu3_ansatz(n, n_blocks=2)
        params = rng.normal(size=circuit.n_params)
        states = _random_states(n, batch, rng)
        targets = rng.random((batch, n))
        single, batched = _expectation_heads(n, targets)

        _, grads = circuit_gradients_batched(circuit, params, states, batched,
                                             backend=backend)
        for b in range(batch):
            _, grad_fd = finite_difference_gradients(circuit, params,
                                                     states[b],
                                                     single(targets[b]),
                                                     backend=backend)
            np.testing.assert_allclose(grads[b], grad_fd, atol=1e-6)

    @pytest.mark.parametrize("backend", ENGINES)
    def test_grouped_ansatz(self, backend):
        rng = np.random.default_rng(13)
        n, batch = 4, 3
        circuit = grouped_st_ansatz([(0, 1), (2, 3)], n, n_blocks=2)
        params = rng.normal(size=circuit.n_params)
        states = _random_states(n, batch, rng)
        targets = rng.random((batch, n))
        single, batched = _expectation_heads(n, targets)

        losses, grads = circuit_gradients_batched(circuit, params, states,
                                                  batched, backend=backend)
        for b in range(batch):
            loss_s, grad_s = circuit_gradients(circuit, params, states[b],
                                               single(targets[b]),
                                               backend=backend)
            assert losses[b] == pytest.approx(loss_s, abs=1e-12)
            np.testing.assert_allclose(grads[b], grad_s, atol=1e-10)

    def test_empty_batch(self):
        circuit = u3_cu3_ansatz(2, n_blocks=1)
        losses, grads = circuit_gradients_batched(
            circuit, np.zeros(circuit.n_params), np.zeros((0, 4)),
            lambda outputs: (np.zeros(0), np.zeros((0, 4))))
        assert losses.shape == (0,)
        assert grads.shape == (0, circuit.n_params)

    def test_bad_head_shapes_raise(self):
        circuit = u3_cu3_ansatz(2, n_blocks=1)
        states = _random_states(2, 3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            circuit_gradients_batched(
                circuit, np.zeros(circuit.n_params), states,
                lambda outputs: (np.zeros(2), np.zeros((3, 4))))
        with pytest.raises(ValueError):
            circuit_gradients_batched(
                circuit, np.zeros(circuit.n_params), states,
                lambda outputs: (np.zeros(3), np.zeros((3, 2))))


def _model_config(decoder, n_groups=1):
    if n_groups == 1:
        return QuGeoVQCConfig(n_groups=1, qubits_per_group=5, n_blocks=2,
                              decoder=decoder, output_shape=(4, 4))
    return QuGeoVQCConfig(n_groups=2, qubits_per_group=3, n_blocks=2,
                          decoder=decoder, output_shape=(4, 4))


class TestBaseClassBatchedFallbacks:
    """The loop fallback behind the adjoint sweep's one engine call stays
    correct on a backend that does not override it (``numpy``)."""

    def test_apply_gate_batched_matches_per_state(self):
        rng = np.random.default_rng(51)
        backend = NumpyLoopBackend()
        states = _random_states(3, 4, rng)
        matrix = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        batched = backend.apply_gate_batched(states, matrix, (2, 0), 3)
        singles = np.stack([backend.apply_gate(state, matrix, (2, 0), 3)
                            for state in states])
        np.testing.assert_allclose(batched, singles, atol=1e-14)


class TestModelBatchedGradients:
    @pytest.mark.parametrize("backend", ENGINES)
    @pytest.mark.parametrize("decoder", ["pixel", "layer"])
    @pytest.mark.parametrize("n_groups", [1, 2])
    def test_batch_matches_per_sample(self, backend, decoder, n_groups):
        rng = np.random.default_rng(20)
        model = QuGeoVQC(_model_config(decoder, n_groups), rng=1,
                         backend=backend)
        batch = 4
        capacity = model.encoder.capacity
        seismic = rng.normal(size=(batch, capacity))
        targets = rng.random((batch, 4, 4))

        losses, gradients = model.loss_and_gradients_batch(seismic, targets)
        assert gradients["theta"].shape == (batch, model.circuit.n_params)
        for b in range(batch):
            loss_s, grads_s = model.loss_and_gradients(seismic[b], targets[b])
            assert losses[b] == pytest.approx(loss_s, abs=1e-12)
            np.testing.assert_allclose(gradients["theta"][b], grads_s["theta"],
                                       atol=1e-10)
            if "output_scale" in grads_s:
                assert gradients["output_scale"][b] == pytest.approx(
                    float(grads_s["output_scale"][0]), abs=1e-12)

    @pytest.mark.parametrize("decoder", ["pixel", "layer"])
    def test_batch_matches_finite_difference(self, decoder):
        rng = np.random.default_rng(21)
        model = QuGeoVQC(_model_config(decoder), rng=2)
        capacity = model.encoder.capacity
        seismic = rng.normal(size=(2, capacity))
        targets = rng.random((2, 4, 4))
        _, gradients = model.loss_and_gradients_batch(seismic, targets)

        epsilon = 1e-6
        for b in range(2):
            for index in rng.choice(model.circuit.n_params, size=4,
                                    replace=False):
                original = model.theta.data[index]
                model.theta.data[index] = original + epsilon
                plus, _ = model.loss_and_gradients(seismic[b], targets[b])
                model.theta.data[index] = original - epsilon
                minus, _ = model.loss_and_gradients(seismic[b], targets[b])
                model.theta.data[index] = original
                fd = (plus - minus) / (2 * epsilon)
                assert gradients["theta"][b, index] == pytest.approx(fd,
                                                                     abs=1e-5)

    def test_scale_gradient_survives_repeated_probes(self):
        """Regression: probing the loss terms repeatedly (as finite
        differences and parameter-shift sweeps do) must not clobber the
        read-out-scale gradient — it is an explicit return value now."""
        rng = np.random.default_rng(22)
        model = QuGeoVQC(_model_config("pixel"), rng=3)
        seismic = rng.normal(size=model.encoder.capacity)
        target = rng.random((4, 4))
        _, reference = model.loss_and_gradients(seismic, target)

        # Probe the pure loss terms at perturbed parameters in between.
        outputs = model.run_circuit(seismic)[None, :]
        model.theta.data[0] += 0.1
        model._pixel_loss_terms(model.run_circuit(seismic)[None, :],
                                target[None])
        model.theta.data[0] -= 0.1
        _, _, scale_grads = model._pixel_loss_terms(outputs, target[None])
        assert scale_grads[0] == pytest.approx(
            float(reference["output_scale"][0]), abs=1e-12)

    def test_accumulate_batch_equals_weighted_accumulation(self):
        rng = np.random.default_rng(23)
        model_a = QuGeoVQC(_model_config("pixel"), rng=4)
        model_b = QuGeoVQC(_model_config("pixel"), rng=4)
        batch = 3
        seismic = rng.normal(size=(batch, model_a.encoder.capacity))
        targets = rng.random((batch, 4, 4))

        loss_a = 0.0
        for b in range(batch):
            loss_a += model_a.accumulate_gradients(seismic[b], targets[b],
                                                   weight=1.0 / batch) / batch
        loss_b = model_b.accumulate_gradients_batch(seismic, targets)
        assert loss_b == pytest.approx(loss_a, abs=1e-12)
        np.testing.assert_allclose(model_b.theta.grad, model_a.theta.grad,
                                   atol=1e-12)
        np.testing.assert_allclose(model_b.output_scale.grad,
                                   model_a.output_scale.grad, atol=1e-12)

    def test_empty_batch_raises(self):
        model = QuGeoVQC(_model_config("layer"), rng=0)
        with pytest.raises(ValueError):
            model.loss_and_gradients_batch([], [])


def _tiny_dataset(rng, n_samples, capacity):
    samples = [FWISample(seismic=rng.normal(size=capacity),
                         velocity=rng.random((4, 4)))
               for _ in range(n_samples)]
    return FWIDataset(samples)


class TestTrainerBatchedPath:
    @pytest.mark.parametrize("decoder", ["pixel", "layer"])
    def test_trajectories_match_across_gradient_paths(self, decoder):
        """Training on the numpy oracle and on the einsum engine must
        follow the same parameter trajectory for a fixed seed."""
        rng = np.random.default_rng(30)
        config = _model_config(decoder)
        dataset = _tiny_dataset(rng, 6, 2**config.qubits_per_group)
        training = TrainingConfig(epochs=3, learning_rate=0.1, batch_size=3,
                                  eval_every=10, seed=0)

        final = {}
        losses = {}
        for backend in (NumpyLoopBackend(), EinsumBatchBackend()):
            model = QuGeoVQC(_model_config(decoder), rng=5, backend=backend)
            result = QuantumTrainer(training).train(model, dataset)
            final[backend.name] = model.theta.data.copy()
            losses[backend.name] = result.history("train_loss")
        np.testing.assert_allclose(final["einsum"], final["numpy"], atol=1e-9)
        np.testing.assert_allclose(losses["einsum"], losses["numpy"],
                                   atol=1e-10)

    def test_batched_path_is_taken_on_einsum(self, monkeypatch):
        rng = np.random.default_rng(31)
        config = _model_config("layer")
        dataset = _tiny_dataset(rng, 4, 2**config.qubits_per_group)
        model = QuGeoVQC(config, rng=6)
        calls = {"batched": 0}
        original = model.accumulate_gradients_batch

        def counting(*args, **kwargs):
            calls["batched"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(model, "accumulate_gradients_batch", counting)
        training = TrainingConfig(epochs=1, learning_rate=0.1, batch_size=2,
                                  eval_every=10, seed=0)
        QuantumTrainer(training).train(model, dataset)
        assert calls["batched"] == 2  # 4 samples / batch 2


class TestBatchedSsim:
    def test_stack_matches_per_image(self):
        rng = np.random.default_rng(40)
        a = rng.random((5, 8, 8))
        b = rng.random((5, 8, 8))
        stacked = ssim(a, b, data_range=1.0)
        singles = [ssim(a[i], b[i], data_range=1.0) for i in range(5)]
        np.testing.assert_allclose(stacked, singles, atol=1e-13)

    def test_stack_default_data_range_is_per_image(self):
        rng = np.random.default_rng(41)
        a = rng.random((3, 8, 8))
        b = np.stack([rng.random((8, 8)),
                      5.0 * rng.random((8, 8)),
                      0.1 * rng.random((8, 8))])
        stacked = ssim(a, b)
        singles = [ssim(a[i], b[i]) for i in range(3)]
        np.testing.assert_allclose(stacked, singles, atol=1e-13)

    def test_uniform_window_stack(self):
        rng = np.random.default_rng(42)
        a = rng.random((4, 8, 8))
        b = rng.random((4, 8, 8))
        stacked = ssim_map(a, b, data_range=1.0, gaussian=False)
        for i in range(4):
            np.testing.assert_allclose(
                stacked[i], ssim_map(a[i], b[i], data_range=1.0,
                                     gaussian=False), atol=1e-13)

    def test_identical_stack_scores_one(self):
        image = np.random.default_rng(43).random((3, 6, 6))
        np.testing.assert_allclose(ssim(image, image.copy()), 1.0, atol=1e-12)

    def test_evaluate_predictions_uses_stack(self):
        rng = np.random.default_rng(44)
        predictions = rng.random((4, 6, 6))
        targets = rng.random((4, 6, 6))
        metrics = evaluate_predictions(predictions, targets)
        expected = np.mean([ssim(predictions[i], targets[i], data_range=1.0)
                            for i in range(4)])
        assert metrics["ssim"] == pytest.approx(expected, abs=1e-12)

    def test_invalid_rank_raises(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((2, 2, 2, 2)), np.zeros((2, 2, 2, 2)))
