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
per-sample API is a batch of one through the same path, on every backend
(``einsum`` by default, the ``numpy`` oracle with ``QUGEO_BACKEND=numpy``).
Prediction has one path too: :meth:`QuGeoVQC.predict` runs a
``(batch, n_features)`` stack as one stacked circuit pass, and a single
sample is a stack of one.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.backends import get_backend
from repro.core.config import QuGeoVQCConfig
from repro.nn.tensor import Tensor
from repro.quantum.ansatz import grouped_st_ansatz, u3_cu3_ansatz
from repro.quantum.autodiff import circuit_gradients_batched
from repro.quantum.circuit import ParameterizedCircuit
from repro.quantum.encoding import STEncoder
from repro.quantum.measurement import (
    all_probabilities,
    marginal_probabilities_backward_batched,
    marginal_probabilities_batched,
    marginal_probabilities_from_probabilities,
    z_expectations_backward_batched,
    z_expectations_batched,
    z_expectations_from_probabilities,
)
from repro.utils.rng import RngLike, ensure_rng

_EPS = 1e-12


class QuGeoVQC:
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
        Simulation engine (name, instance or ``None``).  ``None`` resolves
        ``config.backend`` and then the process default.
    """

    name = "QuGeoVQC"

    def __init__(self, config: QuGeoVQCConfig = None, rng: RngLike = None,
                 backend=None) -> None:
        self.config = config or QuGeoVQCConfig()
        if self.config.n_batch_qubits != 0:
            raise ValueError("QuGeoVQC does not batch; use QuBatchVQC instead")
        self.backend = get_backend(backend if backend is not None
                                   else self.config.backend)
        rng = ensure_rng(rng)
        self.encoder = STEncoder(n_groups=self.config.n_groups,
                                 qubits_per_group=self.config.qubits_per_group)
        self.n_qubits = self.config.total_qubits
        self.circuit = self._build_circuit()
        self.theta = Tensor(rng.normal(0.0, 0.3, size=self.circuit.n_params),
                            requires_grad=True)
        initial_scale = float(np.sqrt(np.prod(self.config.output_shape)) * 0.5)
        self.output_scale = Tensor(np.array([initial_scale]),
                                   requires_grad=self.config.trainable_output_scale)
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
    # parameters
    # ------------------------------------------------------------------ #
    def parameter_tensors(self) -> Tuple[Tensor, ...]:
        """Tensors the optimiser updates (circuit angles and read-out scale)."""
        if self.config.decoder == "pixel" and self.config.trainable_output_scale:
            return (self.theta, self.output_scale)
        return (self.theta,)

    def num_parameters(self, include_readout: bool = False) -> int:
        """Number of quantum circuit parameters (576 for the paper's setup).

        ``include_readout=True`` also counts the classical read-out scale of
        the pixel decoder.
        """
        count = self.circuit.n_params
        if include_readout and self.config.decoder == "pixel" \
                and self.config.trainable_output_scale:
            count += 1
        return count

    @property
    def readout_qubits(self) -> Tuple[int, ...]:
        """Qubits measured by the decoder."""
        if self.config.decoder == "pixel":
            return tuple(range(self.config.readout_qubits_needed))
        return tuple(range(self.config.output_shape[0]))

    # ------------------------------------------------------------------ #
    # forward pass
    # ------------------------------------------------------------------ #
    def encode(self, seismic: np.ndarray) -> np.ndarray:
        """Amplitude-encode one flattened (or shaped) scaled seismic sample.

        Every circuit entry point encodes through here, so a NaN or infinite
        cell is rejected before it becomes a NaN map or NaN gradients.
        """
        seismic = np.asarray(seismic, dtype=np.float64).reshape(-1)
        if not np.isfinite(seismic).all():
            raise ValueError("seismic input is non-finite (NaN or inf); the "
                             "circuit cannot encode it")
        return self.encoder.encode(seismic)

    def run_circuit(self, seismic: np.ndarray) -> np.ndarray:
        """Return the output statevector for one sample."""
        state = self.encode(seismic)
        return self.circuit.run(state, self.theta.data, backend=self.backend)

    def decode_probabilities(self, probs: np.ndarray) -> np.ndarray:
        """Map a full-register probability vector to a velocity map.

        The probabilities may be exact (``|psi|^2`` — the :meth:`decode`
        path) or a shot-noise estimate from
        :func:`repro.quantum.measurement.sampled_probabilities` — the
        finite-shot readout policy in :mod:`repro.robustness` feeds estimated
        probabilities through this same decoder so ideal and sampled
        prediction differ only in the probability vector.
        """
        depth, width = self.config.output_shape
        if self.config.decoder == "pixel":
            marginal = marginal_probabilities_from_probabilities(
                probs, self.readout_qubits, self.n_qubits)
            amplitudes = np.sqrt(marginal[:depth * width] + _EPS)
            scale = float(self.output_scale.data[0])
            return (scale * amplitudes).reshape(depth, width)
        z = z_expectations_from_probabilities(probs, self.readout_qubits,
                                              self.n_qubits)
        rows = (z + 1.0) / 2.0
        return np.repeat(rows[:, None], width, axis=1)

    def decode(self, state: np.ndarray) -> np.ndarray:
        """Map an output statevector to a normalised velocity map."""
        state = np.asarray(state, dtype=np.complex128).reshape(-1)
        if state.size != 2**self.n_qubits:
            raise ValueError("state length does not match n_qubits")
        return self.decode_probabilities(all_probabilities(state))

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
        states = np.stack([self.encode(row) for row in rows])
        outputs = self.circuit.run_batched(states, self.theta.data,
                                           backend=self.backend)
        maps = np.stack([self.decode(output) for output in outputs])
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
        depth, width = self.config.output_shape
        scale = float(self.output_scale.data[0])
        probs = marginal_probabilities_batched(outputs, self.readout_qubits,
                                               self.n_qubits)
        amplitudes = np.sqrt(probs[:, :depth * width] + _EPS)
        predictions = (scale * amplitudes).reshape(-1, depth, width)
        diffs = predictions - targets
        flat_diffs = diffs.reshape(diffs.shape[0], -1)
        losses = np.mean(flat_diffs**2, axis=1)
        dloss_dpred = 2.0 * flat_diffs / flat_diffs.shape[1]
        scale_grads = np.sum(dloss_dpred * amplitudes, axis=1)
        dloss_dprob = np.zeros_like(probs)
        dloss_dprob[:, :depth * width] = dloss_dpred * scale * 0.5 / amplitudes
        lams = marginal_probabilities_backward_batched(
            outputs, self.readout_qubits, self.n_qubits, dloss_dprob)
        return losses, lams, scale_grads

    def _layer_loss_terms(self, outputs: np.ndarray, targets: np.ndarray
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised layer-decoder loss terms of an output-state stack."""
        depth, width = self.config.output_shape
        z = z_expectations_batched(outputs, self.readout_qubits, self.n_qubits)
        rows = (z + 1.0) / 2.0
        diffs = rows[:, :, None] - targets
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

    def accumulate_gradients(self, seismic: np.ndarray,
                             target: np.ndarray, weight: float = 1.0) -> float:
        """Add ``weight``-scaled gradients of one sample into the parameter tensors."""
        loss, gradients = self.loss_and_gradients(seismic, target)
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
        theta_grad = gradients["theta"].mean(axis=0)
        if self.theta.grad is None:
            self.theta.grad = theta_grad
        else:
            self.theta.grad = self.theta.grad + theta_grad
        if "output_scale" in gradients:
            scale_grad = np.array([gradients["output_scale"].mean()])
            if self.output_scale.grad is None:
                self.output_scale.grad = scale_grad
            else:
                self.output_scale.grad = self.output_scale.grad + scale_grad
        return float(losses.mean())

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
