"""QuBatch: processing several samples in one circuit execution.

Section 3.3 of the paper observes that, because the ansatz unitary acting on
the data qubits tensors with an identity on any extra qubits, the same
``U(theta)`` is implicitly replicated along the diagonal of the full-register
unitary.  Encoding ``2**b`` samples into the amplitudes of ``b`` extra
("batch") qubits therefore evaluates the circuit on all samples at once — a
SIMD execution whose price is a joint normalisation of the batched data
(lower per-sample precision) and ``b`` extra qubits per encoder group.

:class:`QuBatchVQC` implements the batched model: it shares the
:class:`~repro.core.config.QuGeoVQCConfig` interface, the parameters and the
decoder read-out (:class:`~repro.core.vqc_core.VQCCore`) of
:class:`~repro.core.vqc_model.QuGeoVQC`, but its forward/backward pass
encodes a *list* of samples, decodes per-sample predictions by conditioning
on the batch-qubit value (each amplitude block normalised by its own total
probability, all blocks of all executions in one vectorised read-out), and
returns the gradient of the summed (averaged) loss of the whole batch from a
single adjoint sweep.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.backends import get_backend
from repro.core.config import QuGeoVQCConfig
from repro.core.vqc_core import VQCCore
from repro.quantum.ansatz import u3_cu3_ansatz
from repro.quantum.autodiff import circuit_gradients_batched
from repro.quantum.circuit import ParameterizedCircuit
from repro.quantum.encoding import QuBatchEncoder, STEncoder
from repro.quantum.measurement import (
    marginal_probabilities_backward_batched,
    z_expectations_backward_batched,
)
from repro.utils.rng import RngLike, ensure_rng


class QuBatchVQC(VQCCore):
    """QuGeoVQC with QuBatch parallel data batching (single encoder group).

    Parameters
    ----------
    config:
        Must have ``n_groups == 1`` and ``n_batch_qubits >= 1``.  The batch
        capacity is ``2**n_batch_qubits`` samples per circuit execution.
    rng:
        Seed / generator for parameter initialisation.
    backend:
        Simulation engine instance; ``None`` builds the default
        :class:`~repro.backends.EinsumBatchBackend` (see
        :func:`repro.backends.get_backend`).
    """

    def __init__(self, config: QuGeoVQCConfig, rng: RngLike = None,
                 backend=None) -> None:
        if config.n_batch_qubits < 1:
            raise ValueError("QuBatchVQC needs at least one batch qubit")
        if config.n_groups != 1:
            raise ValueError("QuBatchVQC currently supports a single encoder group")
        self.config = config
        self.backend = get_backend(backend)
        rng = ensure_rng(rng)
        st_encoder = STEncoder(n_groups=1,
                               qubits_per_group=config.qubits_per_group)
        self.encoder = QuBatchEncoder(st_encoder,
                                      n_batch_qubits=config.n_batch_qubits)
        self.n_qubits = self.encoder.n_qubits
        self.data_qubits = self.encoder.data_qubits_of_group(0)
        self.circuit = self._build_circuit()
        self._init_parameters(rng)
        suffix = "PX" if config.decoder == "pixel" else "LY"
        self.name = f"Q-M-{suffix}+QuBatch{self.batch_capacity}"

    def _build_circuit(self) -> ParameterizedCircuit:
        # The ansatz touches only the data qubits; the batch qubits carry the
        # implicit identity that replicates U(theta) along the diagonal.
        return u3_cu3_ansatz(self.n_qubits, n_blocks=self.config.n_blocks,
                             qubits=self.data_qubits)

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #
    @property
    def batch_capacity(self) -> int:
        """Number of samples processed per circuit execution."""
        return self.encoder.batch_size

    @property
    def extra_qubits(self) -> int:
        """Qubits added on top of the unbatched model (Table 1's column)."""
        return self.config.n_batch_qubits

    # ------------------------------------------------------------------ #
    # forward
    # ------------------------------------------------------------------ #
    def encode(self, seismic_batch: Sequence[np.ndarray]) -> np.ndarray:
        """Encode up to ``batch_capacity`` flattened seismic samples.

        A NaN or infinite cell is rejected here, as in
        :meth:`QuGeoVQC.encode`, before it becomes a NaN prediction.
        """
        return self.encoder.encode([self._flat_finite(s) for s in seismic_batch])

    def encode_each(self, seismic_batch: Sequence[np.ndarray]) -> np.ndarray:
        """Encode every sample alone in its own register: ``(B, 2**n)``."""
        return np.stack([self.encode([sample]) for sample in seismic_batch])

    def output_states(self, seismic_batch: Sequence[np.ndarray]) -> np.ndarray:
        """Output states of the circuit executions a batch needs.

        Samples fill executions of ``batch_capacity`` in order; all of them
        run as one stacked circuit pass, shape ``(executions, 2**n)``.
        """
        states = np.stack([
            self.encode(seismic_batch[start:start + self.batch_capacity])
            for start in range(0, len(seismic_batch), self.batch_capacity)])
        return self.circuit.run_batched(states, self.theta.data,
                                        backend=self.backend)

    def predict_batch(self, seismic_batch: Sequence[np.ndarray]) -> np.ndarray:
        """Predict normalised velocity maps for a batch of samples.

        Batches larger than ``batch_capacity`` run as several circuit
        executions (:meth:`output_states`), decoded together.
        """
        if len(seismic_batch) == 0:
            raise ValueError("empty batch")
        return self._predict_stack(seismic_batch)[:len(seismic_batch)]

    def predict(self, seismic: np.ndarray) -> np.ndarray:
        """Predict a single sample (runs a batch of one)."""
        return self.predict_batch([seismic])[0]

    # ------------------------------------------------------------------ #
    # loss and gradients
    # ------------------------------------------------------------------ #
    def loss_and_gradients(self, seismic_batch: Sequence[np.ndarray],
                           targets: Sequence[np.ndarray]
                           ) -> Tuple[float, Dict[str, np.ndarray]]:
        """Average loss over the batch and its parameter gradients."""
        n_samples = len(seismic_batch)
        if n_samples == 0:
            raise ValueError("empty batch")
        if n_samples != len(targets):
            raise ValueError("seismic batch and targets differ in length")
        if n_samples > self.batch_capacity:
            raise ValueError("batch exceeds QuBatch capacity")
        depth, width = self.config.output_shape
        target_array = np.stack([np.asarray(t, dtype=np.float64) for t in targets])
        if target_array.shape[1:] != (depth, width):
            raise ValueError("target maps have the wrong shape")
        state = self.encode(seismic_batch)
        scale = float(self.output_scale.data[0])
        scale_grad = np.zeros(1)
        readout_qubits = self.readout_qubits
        n_data = self.block_qubits

        def loss_head(outputs: np.ndarray):
            # The QuBatch register is a single state whose amplitude blocks
            # hold the samples; the read-out decodes every block at once, and
            # the blocks past the batch are padding.
            blocks = outputs.reshape(-1, 2**n_data)
            decoded = self.readout(np.abs(outputs) ** 2)
            active = decoded.active.copy()
            active[n_samples:] = False
            norms = decoded.norms[:, None]
            diffs = decoded.maps - target_array_padded
            flat_diffs = diffs.reshape(diffs.shape[0], -1)
            per_block_loss = np.mean(flat_diffs**2, axis=1)
            if self.config.decoder == "pixel":
                dpred = 2.0 * flat_diffs / flat_diffs.shape[1] / n_samples
                dpred[~active] = 0.0
                scale_grad[0] = float(np.sum(dpred * decoded.amplitudes))
                dnorm = np.zeros_like(decoded.values)
                dnorm[:, :depth * width] = (dpred * scale * 0.5
                                            / decoded.amplitudes)
                # Back through normalisation p_o = q_o / total and through
                # the marginalisation q_o = sum over block entries.
                g_per_entry = marginal_probabilities_backward_batched(
                    blocks, readout_qubits, n_data, dnorm)
                weighted = np.sum(dnorm * decoded.values, axis=1)[:, None]
                lam = (g_per_entry - weighted * blocks) / norms
            else:
                dpred = 2.0 * diffs / (depth * width) / n_samples
                dpred[~active] = 0.0
                dz = 0.5 * dpred.sum(axis=2)
                weighted = np.sum(dz * decoded.values, axis=1)[:, None]
                lam = (z_expectations_backward_batched(blocks, readout_qubits,
                                                       n_data, dz)
                       - weighted * blocks) / norms
            lam[~active] = 0.0
            total_loss = float(per_block_loss[active].sum()) / n_samples
            return np.array([total_loss]), lam.reshape(1, -1)

        target_array_padded = np.zeros((self.batch_capacity, depth, width))
        target_array_padded[:n_samples] = target_array
        losses, theta_grads = circuit_gradients_batched(
            self.circuit, self.theta.data, state.reshape(1, -1), loss_head,
            backend=self.backend)
        gradients = {"theta": theta_grads[0]}
        if self.config.decoder == "pixel" and self.config.trainable_output_scale:
            gradients["output_scale"] = scale_grad / n_samples
        return float(losses[0]), gradients
