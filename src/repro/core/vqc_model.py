"""QuGeoVQC: the application-specific variational quantum circuit.

The model is the composition described in Section 3.2 of the paper:

* **Encoder** — the spatial-temporal (ST) amplitude encoder groups the scaled
  seismic data (one group per source when multiple groups are configured) and
  writes it onto the register amplitudes.
* **VQC** — ``n_blocks`` repetitions of the TorchQuantum ``U3+CU3`` block on
  the data qubits (12 blocks on 8 qubits gives the paper's 576 parameters).
  With several encoder groups, each group gets its own sub-VQC and the groups
  are entangled gradually with cross-group CU3 gates.
* **Decoder** — either pixel-wise (``Q-M-PX``): the magnitudes of the first
  ``depth*width`` amplitudes (read as marginal probabilities of the read-out
  qubits) scaled by a read-out factor, trained against Eq. 2; or layer-wise
  (``Q-M-LY``): one Pauli-Z expectation per velocity-map row, trained against
  Eq. 3, exploiting the flat layered structure of the subsurface.

Gradients with respect to the circuit parameters are computed with the
reverse-mode (adjoint) method in :mod:`repro.quantum.autodiff`, so a full
gradient costs roughly three circuit simulations regardless of the parameter
count.  Mini-batches go through :meth:`QuGeoVQC.loss_and_gradients_batch`,
which runs the whole batch as one reversible forward/backward sweep
(:func:`repro.quantum.autodiff.circuit_gradients_batched`) with vectorised
per-decoder loss heads; the sweep uncomputes pre-gate states instead of
storing them, so its memory does not grow with circuit depth.  The
per-sample API is a batch of one through the same path, on the default
``einsum`` engine and on the ``numpy`` oracle tests pass in.
Prediction has one path too: :meth:`QuGeoVQC.predict` runs a
``(batch, n_features)`` stack as one stacked circuit pass, and a single
sample is a stack of one.  Prediction, both loss heads and the finite-shot
readout decode through the one vectorised read-out
:meth:`~repro.core.vqc_core.VQCCore.readout`, which this model shares with
:class:`~repro.core.qubatch.QuBatchVQC` together with its parameters.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.backends import get_backend
from repro.core.config import QuGeoVQCConfig
from repro.core.vqc_core import VQCCore
from repro.quantum.ansatz import grouped_st_ansatz, u3_cu3_ansatz
from repro.quantum.autodiff import circuit_gradients_batched
from repro.quantum.circuit import ParameterizedCircuit
from repro.quantum.encoding import STEncoder
from repro.quantum.measurement import (
    marginal_probabilities_backward_batched,
    z_expectations_backward_batched,
)
from repro.utils.rng import RngLike, ensure_rng


class QuGeoVQC(VQCCore):
    """Quantum seismic-to-velocity regressor.

    Parameters
    ----------
    config:
        Circuit configuration (see :class:`~repro.core.config.QuGeoVQCConfig`).
        ``config.n_batch_qubits`` must be 0 here; use
        :class:`~repro.core.qubatch.QuBatchVQC` for batched execution.
    rng:
        Seed / generator for the parameter initialisation.
    backend:
        Simulation engine instance; ``None`` builds the default
        :class:`~repro.backends.EinsumBatchBackend` (see
        :func:`repro.backends.get_backend`).
    """

    name = "QuGeoVQC"

    def __init__(self, config: QuGeoVQCConfig = None, rng: RngLike = None,
                 backend=None) -> None:
        self.config = config or QuGeoVQCConfig()
        if self.config.n_batch_qubits != 0:
            raise ValueError("QuGeoVQC does not batch; use QuBatchVQC instead")
        self.backend = get_backend(backend)
        rng = ensure_rng(rng)
        self.encoder = STEncoder(n_groups=self.config.n_groups,
                                 qubits_per_group=self.config.qubits_per_group)
        self.n_qubits = self.config.total_qubits
        self.circuit = self._build_circuit()
        self._init_parameters(rng)
        self.name = "Q-M-PX" if self.config.decoder == "pixel" else "Q-M-LY"

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _build_circuit(self) -> ParameterizedCircuit:
        if self.config.n_groups == 1:
            return u3_cu3_ansatz(self.n_qubits, n_blocks=self.config.n_blocks)
        groups = [self.encoder.group_qubits(g) for g in range(self.config.n_groups)]
        return grouped_st_ansatz(groups, self.n_qubits,
                                 n_blocks=self.config.n_blocks,
                                 inter_group_blocks=self.config.inter_group_blocks)

    # ------------------------------------------------------------------ #
    # forward pass
    # ------------------------------------------------------------------ #
    def encode(self, seismic: np.ndarray) -> np.ndarray:
        """Amplitude-encode one flattened (or shaped) scaled seismic sample.

        Every circuit entry point encodes through here, so a NaN or infinite
        cell is rejected before it becomes a NaN map or NaN gradients.
        """
        return self.encoder.encode(self._flat_finite(seismic))

    def run_circuit(self, seismic: np.ndarray) -> np.ndarray:
        """Return the output statevector for one sample."""
        state = self.encode(seismic)
        return self.circuit.run(state, self.theta.data, backend=self.backend)

    def encode_each(self, seismic_batch: Sequence[np.ndarray]) -> np.ndarray:
        """Encode every sample as its own circuit execution: ``(B, 2**n)``."""
        return np.stack([self.encode(sample) for sample in seismic_batch])

    def output_states(self, seismic_batch: Sequence[np.ndarray]) -> np.ndarray:
        """Output states of a batch, one stacked circuit pass: ``(B, 2**n)``."""
        return self.circuit.run_batched(self.encode_each(seismic_batch),
                                        self.theta.data, backend=self.backend)

    def predict(self, seismic: np.ndarray) -> np.ndarray:
        """Predict normalised velocity maps of scaled seismic input.

        A 2-D ``(batch, n_features)`` stack returns ``(batch, depth, width)``
        maps from one stacked circuit pass
        (:meth:`~repro.quantum.circuit.ParameterizedCircuit.run_batched`);
        any other shape is one sample, flattened, and returns one
        ``(depth, width)`` map.
        """
        seismic = np.asarray(seismic, dtype=np.float64)
        single = seismic.ndim != 2
        rows = seismic.reshape(1, -1) if single else seismic
        if rows.shape[0] == 0:
            raise ValueError("empty batch: no seismic samples to predict")
        maps = self._predict_stack(rows)
        return maps[0] if single else maps

    def predict_batch(self, seismic_batch: Sequence[np.ndarray]) -> np.ndarray:
        """``Model``-protocol alias: :meth:`predict` on the stacked batch."""
        if len(seismic_batch) == 0:
            raise ValueError("empty batch: no seismic samples to predict")
        return self.predict(np.stack([np.ravel(s) for s in seismic_batch]))

    # ------------------------------------------------------------------ #
    # loss and gradients
    # ------------------------------------------------------------------ #
    def _pixel_loss_terms(self, outputs: np.ndarray, targets: np.ndarray
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised pixel-decoder loss terms of an output-state stack.

        A pure function of ``(outputs, targets)``: returns per-sample losses
        ``(B,)``, the co-state stack ``dL_b/d(psi_b*)`` of shape
        ``(B, 2**n)``, and the per-sample read-out-scale gradients ``(B,)``
        — the scale gradient is an explicit return value, never a closure
        side effect, so probing these terms repeatedly (finite differences,
        parameter-shift sweeps) cannot clobber it.
        """
        scale = float(self.output_scale.data[0])
        decoded = self.readout(np.abs(outputs) ** 2)
        diffs = decoded.maps - targets
        flat_diffs = diffs.reshape(diffs.shape[0], -1)
        losses = np.mean(flat_diffs**2, axis=1)
        dloss_dpred = 2.0 * flat_diffs / flat_diffs.shape[1]
        scale_grads = np.sum(dloss_dpred * decoded.amplitudes, axis=1)
        dloss_dprob = np.zeros_like(decoded.values)
        dloss_dprob[:, :flat_diffs.shape[1]] = (dloss_dpred * scale * 0.5
                                                / decoded.amplitudes)
        lams = marginal_probabilities_backward_batched(
            outputs, self.readout_qubits, self.n_qubits, dloss_dprob)
        return losses, lams, scale_grads

    def _layer_loss_terms(self, outputs: np.ndarray, targets: np.ndarray
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised layer-decoder loss terms of an output-state stack."""
        depth, width = self.config.output_shape
        diffs = self.readout(np.abs(outputs) ** 2).maps - targets
        losses = np.mean(diffs.reshape(diffs.shape[0], -1)**2, axis=1)
        dloss_dpred = 2.0 * diffs / (depth * width)
        dloss_dz = 0.5 * dloss_dpred.sum(axis=2)
        lams = z_expectations_backward_batched(outputs, self.readout_qubits,
                                               self.n_qubits, dloss_dz)
        return losses, lams, np.zeros(outputs.shape[0])

    def _loss_terms(self, outputs: np.ndarray, targets: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-decoder ``(losses, co-states, scale gradients)`` of a stack."""
        if self.config.decoder == "pixel":
            return self._pixel_loss_terms(outputs, targets)
        return self._layer_loss_terms(outputs, targets)

    def _validate_targets(self, targets, batch: int) -> np.ndarray:
        depth, width = self.config.output_shape
        targets = np.stack([np.asarray(t, dtype=np.float64) for t in targets])
        if targets.shape != (batch, depth, width):
            raise ValueError(
                f"target shape {targets.shape[1:]} != {(depth, width)}")
        return targets

    def loss_and_gradients_batch(self, seismic_batch: Sequence[np.ndarray],
                                 targets: Sequence[np.ndarray]
                                 ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """Per-sample losses and gradients of a whole mini-batch.

        Runs one stacked forward pass and one reversible adjoint sweep
        (:func:`repro.quantum.autodiff.circuit_gradients_batched`) instead of
        a Python loop over samples, on every backend.

        Returns the ``(B,)`` loss vector and a dict with a ``(B, n_params)``
        ``"theta"`` gradient matrix and (for the trainable pixel decoder) a
        ``(B,)`` ``"output_scale"`` gradient vector.
        """
        if len(seismic_batch) == 0:
            raise ValueError("empty batch")
        target_array = self._validate_targets(targets, len(seismic_batch))
        states = np.stack([self.encode(sample) for sample in seismic_batch])
        extras: Dict[str, np.ndarray] = {}

        def loss_head(outputs: np.ndarray):
            losses, lams, scale_grads = self._loss_terms(outputs, target_array)
            # circuit_gradients_batched invokes the head exactly once, on the
            # full batch, so this capture is single-assignment by contract.
            extras["output_scale"] = scale_grads
            return losses, lams

        losses, theta_grads = circuit_gradients_batched(
            self.circuit, self.theta.data, states, loss_head,
            backend=self.backend)
        gradients = {"theta": theta_grads}
        if self.config.decoder == "pixel" and self.config.trainable_output_scale:
            gradients["output_scale"] = extras["output_scale"]
        return losses, gradients

    def loss_and_gradients(self, seismic: np.ndarray,
                           target: np.ndarray) -> Tuple[float, Dict[str, np.ndarray]]:
        """Loss and parameter gradients for one (seismic, velocity) pair.

        Returns the scalar loss and a dict with gradients for ``"theta"`` and
        (for the pixel decoder) ``"output_scale"``.  Implemented as a batch
        of one through the stacked gradient path.
        """
        losses, batch_gradients = self.loss_and_gradients_batch([seismic],
                                                                [target])
        gradients = {"theta": batch_gradients["theta"][0]}
        if "output_scale" in batch_gradients:
            gradients["output_scale"] = batch_gradients["output_scale"].copy()
        return float(losses[0]), gradients

    def accumulate_gradients_batch(self, seismic_batch: Sequence[np.ndarray],
                                   targets: Sequence[np.ndarray]) -> float:
        """Accumulate the batch-mean gradients into the parameter tensors.

        Equivalent to calling :meth:`accumulate_gradients` on every sample
        with ``weight = 1 / B``, but computed with one stacked
        forward/backward sweep; the trainer's quantum step.  Returns the
        mean loss over the batch.
        """
        losses, gradients = self.loss_and_gradients_batch(seismic_batch,
                                                          targets)
        self._add_gradients({name: np.atleast_1d(grad.mean(axis=0))
                             for name, grad in gradients.items()})
        return float(losses.mean())
