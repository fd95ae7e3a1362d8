"""QuBatch: processing several samples in one circuit execution.

Section 3.3 of the paper observes that, because the ansatz unitary acting on
the data qubits tensors with an identity on any extra qubits, the same
``U(theta)`` is implicitly replicated along the diagonal of the full-register
unitary.  Encoding ``2**b`` samples into the amplitudes of ``b`` extra
("batch") qubits therefore evaluates the circuit on all samples at once — a
SIMD execution whose price is a joint normalisation of the batched data
(lower per-sample precision) and ``b`` extra qubits per encoder group.

:class:`QuBatchVQC` implements the batched model: it shares the
:class:`~repro.core.config.QuGeoVQCConfig` interface of
:class:`~repro.core.vqc_model.QuGeoVQC`, but its forward/backward pass
encodes a *list* of samples, decodes per-sample predictions by conditioning
on the batch-qubit value, and returns the gradient of the summed (averaged)
loss of the whole batch from a single adjoint sweep.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.backends import get_backend
from repro.core.config import QuGeoVQCConfig
from repro.nn.tensor import Tensor
from repro.quantum.ansatz import u3_cu3_ansatz
from repro.quantum.autodiff import circuit_gradients_batched
from repro.quantum.circuit import ParameterizedCircuit
from repro.quantum.encoding import QuBatchEncoder, STEncoder
from repro.quantum.measurement import (
    marginal_probabilities_backward_batched,
    marginal_probabilities_batched,
    z_expectations_backward_batched,
    z_expectations_batched,
)
from repro.utils.rng import RngLike, ensure_rng

_EPS = 1e-12


class QuBatchVQC:
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
        self.theta = Tensor(rng.normal(0.0, 0.3, size=self.circuit.n_params),
                            requires_grad=True)
        initial_scale = float(np.sqrt(np.prod(config.output_shape)) * 0.5)
        self.output_scale = Tensor(np.array([initial_scale]),
                                   requires_grad=config.trainable_output_scale)
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

    def parameter_tensors(self) -> Tuple[Tensor, ...]:
        """Tensors updated by the optimiser."""
        if self.config.decoder == "pixel" and self.config.trainable_output_scale:
            return (self.theta, self.output_scale)
        return (self.theta,)

    def num_parameters(self, include_readout: bool = False) -> int:
        """Circuit parameter count (identical to the unbatched model)."""
        count = self.circuit.n_params
        if include_readout and self.config.decoder == "pixel" \
                and self.config.trainable_output_scale:
            count += 1
        return count

    def _readout_qubits(self) -> Tuple[int, ...]:
        if self.config.decoder == "pixel":
            needed = self.config.readout_qubits_needed
            return tuple(self.data_qubits[:needed])
        return tuple(self.data_qubits[:self.config.output_shape[0]])

    # ------------------------------------------------------------------ #
    # forward
    # ------------------------------------------------------------------ #
    def encode(self, seismic_batch: Sequence[np.ndarray]) -> np.ndarray:
        """Encode up to ``batch_capacity`` flattened seismic samples.

        A NaN or infinite cell is rejected here, as in
        :meth:`QuGeoVQC.encode`, before it becomes a NaN prediction.
        """
        flat = [np.asarray(s, dtype=np.float64).reshape(-1) for s in seismic_batch]
        if not all(np.isfinite(s).all() for s in flat):
            raise ValueError("seismic input is non-finite (NaN or inf); the "
                             "circuit cannot encode it")
        return self.encoder.encode(flat)

    def _block_view(self, state: np.ndarray) -> np.ndarray:
        """Reshape the register state into per-sample amplitude blocks."""
        return state.reshape(self.batch_capacity, -1)

    def _decode_blocks(self, state: np.ndarray, n_samples: int) -> np.ndarray:
        """Decode per-sample velocity maps from the batched output state."""
        blocks = self._block_view(state)
        return self.decode_block_probabilities(np.abs(blocks) ** 2, n_samples)

    def decode_block_probabilities(self, block_probs: np.ndarray,
                                   n_samples: int) -> np.ndarray:
        """Decode velocity maps from per-block probability rows.

        ``block_probs`` is the ``(batch_capacity, 2**qubits_per_group)``
        matrix of basis-state probabilities, exact or shot-noise estimated —
        the finite-shot readout policy in :mod:`repro.robustness` reshapes a
        sampled full-register probability vector into blocks and decodes it
        here, so ideal and sampled QuBatch prediction share one decoder.
        Each block is normalised by its own total probability, which is what
        makes the conditional decode work on unnormalised sampled blocks too.
        """
        depth, width = self.config.output_shape
        block_probs = np.asarray(block_probs, dtype=np.float64)
        if block_probs.shape != (self.batch_capacity,
                                 2**self.config.qubits_per_group):
            raise ValueError("block_probs shape does not match the register")
        predictions = np.zeros((n_samples, depth, width))
        readout_local = self._local_readout_indices()
        for b in range(n_samples):
            probs = block_probs[b]
            total = probs.sum()
            if total <= _EPS:
                continue
            if self.config.decoder == "pixel":
                marg = self._marginalise(probs, readout_local) / total
                amplitudes = np.sqrt(marg[:depth * width] + _EPS)
                scale = float(self.output_scale.data[0])
                predictions[b] = (scale * amplitudes).reshape(depth, width)
            else:
                z = self._block_z(probs, total)
                rows = (z + 1.0) / 2.0
                predictions[b] = np.repeat(rows[:, None], width, axis=1)
        return predictions

    def _local_readout_indices(self) -> Tuple[int, ...]:
        """Read-out qubits expressed relative to the data block."""
        offset = self.config.n_batch_qubits
        return tuple(q - offset for q in self._readout_qubits())

    def _marginalise(self, block_probs: np.ndarray,
                     local_qubits: Sequence[int]) -> np.ndarray:
        """Marginal outcome probabilities of ``local_qubits`` inside one block."""
        n_data = self.config.qubits_per_group
        probs = block_probs.reshape((2,) * n_data)
        others = tuple(q for q in range(n_data) if q not in local_qubits)
        marginal = probs.sum(axis=others) if others else probs
        order = [q for q in range(n_data) if q in local_qubits]
        permutation = [order.index(q) for q in local_qubits]
        return np.transpose(marginal, permutation).reshape(-1)

    def _block_z(self, block_probs: np.ndarray, total: float) -> np.ndarray:
        """Conditional Z expectations of the read-out qubits inside one block."""
        n_data = self.config.qubits_per_group
        depth = self.config.output_shape[0]
        indices = np.arange(block_probs.size)
        z = np.zeros(depth)
        for row, local_q in enumerate(range(depth)):
            bit = (indices >> (n_data - 1 - local_q)) & 1
            signs = 1.0 - 2.0 * bit
            z[row] = float(np.dot(signs, block_probs) / total)
        return z

    def predict_batch(self, seismic_batch: Sequence[np.ndarray]) -> np.ndarray:
        """Predict normalised velocity maps for a batch of samples.

        Batches larger than ``batch_capacity`` run as several circuit
        executions, one capacity-sized chunk at a time.
        """
        n_samples = len(seismic_batch)
        if n_samples == 0:
            raise ValueError("empty batch")
        if n_samples > self.batch_capacity:
            return np.concatenate(
                [self.predict_batch(seismic_batch[start:start + self.batch_capacity])
                 for start in range(0, n_samples, self.batch_capacity)],
                axis=0)
        state = self.encode(seismic_batch)
        output = self.circuit.run(state, self.theta.data, backend=self.backend)
        return self._decode_blocks(output, n_samples)

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
        readout_local = self._local_readout_indices()
        n_data = self.config.qubits_per_group

        def loss_head(outputs: np.ndarray):
            # The QuBatch register is a single state whose amplitude blocks
            # hold the samples; the per-sample structure is recovered by the
            # reshape, so all blocks run through the vectorised read-out
            # heads together instead of a Python loop over samples.
            blocks = outputs.reshape(-1, 2**n_data)
            probs = np.abs(blocks) ** 2
            totals = probs.sum(axis=1)
            active = np.zeros(self.batch_capacity, dtype=bool)
            active[:n_samples] = totals[:n_samples] > _EPS
            safe_totals = np.where(active, totals, 1.0)[:, None]
            if self.config.decoder == "pixel":
                marg = marginal_probabilities_batched(blocks, readout_local,
                                                      n_data)
                norm_marg = marg / safe_totals
                amplitudes = np.sqrt(norm_marg[:, :depth * width] + _EPS)
                predictions = scale * amplitudes
                diffs = (predictions.reshape(-1, depth, width)
                         - target_array_padded)
                flat_diffs = diffs.reshape(diffs.shape[0], -1)
                per_block_loss = np.mean(flat_diffs**2, axis=1)
                dpred = 2.0 * flat_diffs / flat_diffs.shape[1] / n_samples
                dpred[~active] = 0.0
                scale_grad[0] = float(np.sum(dpred * amplitudes))
                dnorm = np.zeros_like(norm_marg)
                dnorm[:, :depth * width] = dpred * scale * 0.5 / amplitudes
                # Back through normalisation p_o = q_o / total and through
                # the marginalisation q_o = sum over block entries.
                g_per_entry = marginal_probabilities_backward_batched(
                    blocks, readout_local, n_data, dnorm)
                weighted = np.sum(dnorm * norm_marg, axis=1)[:, None]
                lam = (g_per_entry - weighted * blocks) / safe_totals
            else:
                z_qubits = tuple(range(depth))
                z = z_expectations_batched(blocks, z_qubits,
                                           n_data) / safe_totals
                rows = (z + 1.0) / 2.0
                diffs = rows[:, :, None] - target_array_padded
                flat_diffs = diffs.reshape(diffs.shape[0], -1)
                per_block_loss = np.mean(flat_diffs**2, axis=1)
                dpred = 2.0 * diffs / (depth * width) / n_samples
                dpred[~active] = 0.0
                dz = 0.5 * dpred.sum(axis=2)
                weighted = np.sum(dz * z, axis=1)[:, None]
                lam = (z_expectations_backward_batched(blocks, z_qubits,
                                                       n_data, dz)
                       - weighted * blocks) / safe_totals
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

    def accumulate_gradients(self, seismic_batch: Sequence[np.ndarray],
                             targets: Sequence[np.ndarray],
                             weight: float = 1.0) -> float:
        """Accumulate batch gradients into the parameter tensors."""
        loss, gradients = self.loss_and_gradients(seismic_batch, targets)
        theta_grad = weight * gradients["theta"]
        if self.theta.grad is None:
            self.theta.grad = theta_grad
        else:
            self.theta.grad = self.theta.grad + theta_grad
        if "output_scale" in gradients:
            scale_grad = weight * gradients["output_scale"]
            if self.output_scale.grad is None:
                self.output_scale.grad = scale_grad
            else:
                self.output_scale.grad = self.output_scale.grad + scale_grad
        return loss

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of the trainable arrays."""
        return {"theta": self.theta.data.copy(),
                "output_scale": self.output_scale.data.copy()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load arrays produced by :meth:`state_dict`."""
        theta = np.asarray(state["theta"], dtype=np.float64)
        if theta.shape != self.theta.data.shape:
            raise ValueError("theta shape mismatch")
        self.theta.data = theta.copy()
        if "output_scale" in state:
            scale = np.asarray(state["output_scale"], dtype=np.float64)
            if scale.shape != self.output_scale.data.shape:
                raise ValueError("output_scale shape mismatch")
            self.output_scale.data = scale.copy()
