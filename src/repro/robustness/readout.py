"""Finite-shot readout: measurement realism for the quantum decoders.

An ideal simulator reads exact probabilities off the statevector; hardware
estimates them from a finite number of measurement shots.
:class:`FiniteShotReadout` wraps a fitted :class:`~repro.core.vqc_model.QuGeoVQC`
or :class:`~repro.core.qubatch.QuBatchVQC` so that *prediction* runs through
:func:`repro.quantum.measurement.sampled_probabilities` with a configurable
``n_shots``, then feeds the estimated probabilities through the model's own
read-out (:meth:`~repro.core.vqc_core.VQCCore.readout`, the one both models'
``predict`` and loss heads decode with) — ideal and sampled prediction
differ only in the probability estimate, so shot-noise degradation curves
isolate exactly the measurement effect.  Each sample runs as its own
circuit execution (a QuBatch register holds it alone), sampled once; a
batch runs all of its executions as one stacked circuit pass.

The wrapper satisfies the prediction surface the evaluation helpers consume
(``predict`` / ``predict_batch``), so it drops straight into
:func:`repro.core.training.evaluate_data_source` and the degradation harness.

Determinism: the wrapper owns one generator seeded at construction and
consumes it across predictions, so an identical sequence of predictions
after construction is bit-reproducible (see
:func:`repro.quantum.measurement.sample_counts`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.vqc_core import VQCCore
from repro.quantum.measurement import sampled_probabilities
from repro.telemetry import get_telemetry
from repro.utils.rng import RngLike, ensure_rng


class FiniteShotReadout:
    """Predict through shot-noise-estimated probabilities.

    Parameters
    ----------
    model:
        A fitted ``QuGeoVQC`` or ``QuBatchVQC``.  Training is unaffected —
        only this wrapper's predictions are sampled.
    n_shots:
        Measurement shots per circuit execution.  More shots converge to
        the ideal decoder's output at the usual ``1/sqrt(n_shots)`` rate.
    rng:
        Seed / generator / SeedSequence of the shot sampler.
    """

    def __init__(self, model, n_shots: int, rng: RngLike = 0) -> None:
        if n_shots <= 0:
            raise ValueError("n_shots must be positive")
        if not isinstance(model, VQCCore):
            raise TypeError(
                f"{type(model).__name__} has no quantum decoder read-out; "
                "FiniteShotReadout wraps QuGeoVQC or QuBatchVQC")
        self.model = model
        self.n_shots = int(n_shots)
        self._rng = ensure_rng(rng)
        self.name = (f"{getattr(model, 'name', type(model).__name__)}"
                     f"@{self.n_shots}shots")

    # ------------------------------------------------------------------ #
    # prediction surface (evaluate_data_source / predict_in_batches)
    # ------------------------------------------------------------------ #
    def predict(self, seismic: np.ndarray) -> np.ndarray:
        """Predict one sample from ``n_shots`` sampled measurements."""
        return self.predict_batch([seismic])[0]

    def predict_batch(self, seismic_batch: Sequence[np.ndarray]) -> np.ndarray:
        """Predict a batch; every sample is its own sampled execution.

        All executions run as one stacked circuit pass; the rows are then
        sampled in sample order from the wrapper's generator and decoded
        together, which draws exactly what one :meth:`predict` per sample
        draws.
        """
        if len(seismic_batch) == 0:
            raise ValueError("empty batch")
        model = self.model
        telemetry = get_telemetry()
        with telemetry.span("robustness.finite_shot"):
            states = model.circuit.run_batched(
                model.encode_each(seismic_batch), model.theta.data,
                backend=model.backend)
            probs = np.stack([
                sampled_probabilities(state, self.n_shots, rng=self._rng)
                for state in states])
            maps = model.readout(probs).maps
            # A QuBatch execution decodes one map per register slot; the
            # sample sits in the first.
            predictions = maps.reshape(
                (len(seismic_batch), -1) + maps.shape[1:])[:, 0]
        if telemetry.enabled:
            telemetry.counter("robustness.sampled_predictions").inc(
                len(seismic_batch))
        return predictions
