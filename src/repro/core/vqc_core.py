"""What :class:`~repro.core.vqc_model.QuGeoVQC` and
:class:`~repro.core.qubatch.QuBatchVQC` share.

:class:`VQCCore` holds the trainable parameters (circuit angles and the pixel
decoder's read-out scale), the finite-input check every encoder runs, the
gradient accumulation into ``Tensor.grad`` and the decoders' one forward
read-out, :meth:`VQCCore.readout`.

The read-out maps a ``(executions, 2**n_qubits)`` probability stack to
velocity maps.  Every prediction path decodes through it: exact
``|psi|**2`` rows in ``predict``/``predict_batch`` and in the loss heads of
both models, shot-noise estimates in
:class:`~repro.robustness.readout.FiniteShotReadout`.  An execution of an
unbatched register is one block; a QuBatch execution holds
``2**n_batch_qubits`` blocks, one per sample, each decoded conditionally on
its batch-qubit value (normalised by its own total probability).
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.nn.tensor import Tensor
from repro.quantum.measurement import (
    marginal_probabilities_batched,
    z_expectations_batched,
)
from repro.utils.rng import RngLike

_EPS = 1e-12


class Readout(NamedTuple):
    """Decoder read-out of a probability stack, one row per block."""

    #: ``(blocks, depth, width)`` velocity maps; zero for an empty block.
    maps: np.ndarray
    #: Read-out marginals (pixel) or Z expectations (layer), block-normalised.
    values: np.ndarray
    #: Pixel decoder's ``sqrt(marginal + eps)`` per map cell; ``None`` for
    #: the layer decoder.
    amplitudes: Optional[np.ndarray]
    #: Per-block divisor of ``values``: the block's total probability, or
    #: 1.0 for an empty block and for a register without batch qubits.
    norms: np.ndarray
    #: Blocks whose total probability exceeds 1e-12.
    active: np.ndarray


class VQCCore:
    """Parameters, input check, read-out and gradient plumbing of both models.

    A subclass sets ``config``, ``backend``, ``circuit`` and ``n_qubits``,
    calls :meth:`_init_parameters`, and defines ``output_states``,
    ``loss_and_gradients`` and ``encode``.
    """

    def _init_parameters(self, rng: RngLike) -> None:
        self.theta = Tensor(rng.normal(0.0, 0.3, size=self.circuit.n_params),
                            requires_grad=True)
        initial_scale = float(np.sqrt(np.prod(self.config.output_shape)) * 0.5)
        self.output_scale = Tensor(np.array([initial_scale]),
                                   requires_grad=self.config.trainable_output_scale)

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

    def _add_gradients(self, gradients: Dict[str, np.ndarray]) -> None:
        """Add each named gradient into its parameter tensor's ``grad``."""
        for name, grad in gradients.items():
            tensor = getattr(self, name)
            tensor.grad = grad if tensor.grad is None else tensor.grad + grad

    def accumulate_gradients(self, seismic, targets,
                             weight: float = 1.0) -> float:
        """Add ``weight``-scaled :meth:`loss_and_gradients` gradients into
        the parameter tensors; return the loss."""
        loss, gradients = self.loss_and_gradients(seismic, targets)
        self._add_gradients({name: weight * grad
                             for name, grad in gradients.items()})
        return loss

    # ------------------------------------------------------------------ #
    # encoding and read-out
    # ------------------------------------------------------------------ #
    @staticmethod
    def _flat_finite(seismic: np.ndarray) -> np.ndarray:
        """Flatten one seismic sample, rejecting NaN or infinite cells before
        they become a NaN map or NaN gradients."""
        seismic = np.asarray(seismic, dtype=np.float64).reshape(-1)
        if not np.isfinite(seismic).all():
            raise ValueError("seismic input is non-finite (NaN or inf); the "
                             "circuit cannot encode it")
        return seismic

    @property
    def block_qubits(self) -> int:
        """Qubits of one decoded block: the register minus its batch qubits."""
        return self.n_qubits - self.config.n_batch_qubits

    @property
    def readout_qubits(self) -> Tuple[int, ...]:
        """Qubits the decoder measures, numbered inside one block."""
        if self.config.decoder == "pixel":
            return tuple(range(self.config.readout_qubits_needed))
        return tuple(range(self.config.output_shape[0]))

    def readout(self, probs: np.ndarray) -> Readout:
        """Decode a ``(executions, 2**n_qubits)`` probability stack.

        The rows may be exact (``|psi|**2``) or a shot-noise estimate
        (:func:`repro.quantum.measurement.sampled_probabilities`).  Each
        block of ``2**block_qubits`` probabilities decodes to one map: the
        pixel decoder (Q-M-PX) reads ``output_scale * sqrt(p + 1e-12)`` off
        the read-out marginals ``p``, the layer decoder (Q-M-LY) fills row
        ``r`` with ``(1 + <Z_r>) / 2``.  With batch qubits every block is
        normalised by its own total probability, and a block holding at
        most 1e-12 decodes to a zero map.
        """
        depth, width = self.config.output_shape
        blocks = np.asarray(probs).reshape(-1, 2**self.block_qubits)
        pixel = self.config.decoder == "pixel"
        measure = marginal_probabilities_batched if pixel \
            else z_expectations_batched
        values = measure(blocks, self.readout_qubits, self.block_qubits)
        active = np.ones(len(blocks), dtype=bool)
        norms = np.ones(len(blocks))
        if self.config.n_batch_qubits:
            totals = blocks.sum(axis=1)
            active = totals > _EPS
            norms = np.where(active, totals, 1.0)
            values = values / norms[:, None]
        amplitudes = None
        if pixel:
            amplitudes = np.sqrt(values[:, :depth * width] + _EPS)
            maps = float(self.output_scale.data[0]) * amplitudes
        else:
            maps = np.repeat((values + 1.0) / 2.0, width, axis=1)
        maps = maps.reshape(-1, depth, width)
        maps[~active] = 0.0
        return Readout(maps, values, amplitudes, norms, active)

    def _predict_stack(self, seismic_batch: Sequence[np.ndarray]) -> np.ndarray:
        """Maps of every block of the output states of ``seismic_batch``."""
        return self.readout(np.abs(self.output_states(seismic_batch)) ** 2).maps

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
