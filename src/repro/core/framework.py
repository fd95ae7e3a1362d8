"""The end-to-end QuGeo pipeline.

:class:`QuGeo` wires the three components of the framework together exactly
as Figure 2 of the paper draws them:

1. **QuGeoData** scales full-resolution (seismic, velocity) pairs to a size
   the configured quantum register can encode — with forward modelling
   (``Q-D-FW``), the learned compressor (``Q-D-CNN``) or naive resampling
   (``D-Sample``).
2. **QuGeoVQC** (optionally with **QuBatch**) is trained on the scaled pairs.
3. At inference time, raw seismic data is scaled with the same method and the
   trained circuit predicts the velocity map, which is de-normalised back to
   physical units.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro.core.config import QuGeoConfig, config_from_dict, config_to_dict
from repro.core.data_scaling import (
    BaseScaler,
    CNNScaler,
    DSampleScaler,
    ForwardModelingScaler,
    scaler_from_state,
    scaler_state,
)
from repro.core.qubatch import QuBatchVQC
from repro.core.training import (
    Callback,
    Trainer,
    TrainingResult,
    check_compute_policy,
    compute_policy,
    predict_in_batches,
)
from repro.core.vqc_model import QuGeoVQC
from repro.data.dataset import FWIDataset, FWISample
from repro.data.normalization import VelocityNormalizer
from repro.utils.logging import RunLogger
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.serialization import load_checkpoint, save_checkpoint

PIPELINE_VERSION = 1

_SCALING_LABELS = {
    "d_sample": "D-Sample",
    "forward_modeling": "Q-D-FW",
    "cnn": "Q-D-CNN",
}


class QuGeo:
    """End-to-end quantum learning pipeline for full-waveform inversion.

    Parameters
    ----------
    config:
        Full framework configuration; defaults reproduce the paper's setup
        (256-value seismic input, 8x8 velocity output, 8 qubits, 12 blocks,
        layer-wise decoder, physics-guided scaling).
    rng:
        Seed or generator controlling scaler training, parameter
        initialisation and data shuffling.
    """

    def __init__(self, config: QuGeoConfig = None, rng: RngLike = None) -> None:
        self.config = config or QuGeoConfig()
        self._rng = ensure_rng(rng)
        self.scaler: Optional[BaseScaler] = None
        self.model: Optional[Union[QuGeoVQC, QuBatchVQC]] = None
        self.training_result: Optional[TrainingResult] = None
        self.normalizer = VelocityNormalizer(*self.config.data.velocity_range)

    # ------------------------------------------------------------------ #
    # component construction
    # ------------------------------------------------------------------ #
    def build_scaler(self, compressor_dataset: Optional[FWIDataset] = None,
                     compressor_epochs: int = 40) -> BaseScaler:
        """Instantiate (and, for Q-D-CNN, train) the configured data scaler."""
        method = self.config.scaling_method
        if method == "d_sample":
            self.scaler = DSampleScaler(self.config.data)
        elif method == "forward_modeling":
            self.scaler = ForwardModelingScaler(self.config.data)
        else:
            if compressor_dataset is None or not len(compressor_dataset):
                raise ValueError(
                    "scaling_method='cnn' needs a compressor training dataset")
            self.scaler = CNNScaler.train(compressor_dataset,
                                          config=self.config.data,
                                          epochs=compressor_epochs,
                                          rng=self._rng)
        return self.scaler

    def build_model(self) -> Union[QuGeoVQC, QuBatchVQC]:
        """Instantiate the configured quantum model."""
        if self.config.vqc.n_batch_qubits > 0:
            self.model = QuBatchVQC(self.config.vqc, rng=self._rng)
        else:
            self.model = QuGeoVQC(self.config.vqc, rng=self._rng)
        return self.model

    # ------------------------------------------------------------------ #
    # fit / predict
    # ------------------------------------------------------------------ #
    def fit(self, train_dataset: FWIDataset,
            test_dataset: Optional[FWIDataset] = None,
            compressor_dataset: Optional[FWIDataset] = None,
            callbacks: Sequence[Callback] = (),
            resume_from: Optional[str] = None) -> TrainingResult:
        """Scale the data, build the model and train it.

        Parameters
        ----------
        train_dataset, test_dataset:
            Full-resolution FWI datasets (as produced by
            :mod:`repro.data.openfwi`).
        compressor_dataset:
            Extra full-resolution samples used to train the Q-D-CNN
            compressor when ``scaling_method='cnn'``.
        callbacks:
            Extra training callbacks (checkpointing, early stopping, ...)
            passed through to the :class:`~repro.core.training.Trainer`.
        resume_from:
            Checkpoint path to resume the model training from (see
            :class:`~repro.core.training.Checkpoint`).
        """
        if self.scaler is None:
            self.build_scaler(compressor_dataset)
        if self.model is None:
            self.build_model()
        scaled_train = self.scaler.scale_dataset(train_dataset)
        scaled_test = (self.scaler.scale_dataset(test_dataset)
                       if test_dataset is not None else None)
        trainer = Trainer(self.config.training)
        self.training_result = trainer.train(self.model, scaled_train,
                                             scaled_test, callbacks=callbacks,
                                             resume_from=resume_from)
        return self.training_result

    def predict(self, sample: FWISample,
                denormalize: bool = True) -> np.ndarray:
        """Predict the velocity map of one full-resolution sample.

        Returns the map in physical units (m/s) unless ``denormalize=False``.
        A batch of one through :meth:`predict_dataset`.
        """
        return self.predict_dataset(FWIDataset([sample]), denormalize)[0]

    def predict_dataset(self, dataset: FWIDataset,
                        denormalize: bool = True) -> np.ndarray:
        """Predict velocity maps for every sample of a full-resolution dataset.

        The samples are scaled, then predicted in stacked circuit passes of
        at most ``config.training.eval_batch_size`` samples
        (:func:`~repro.core.training.predict_in_batches`), and the whole
        ``(n, depth, width)`` result is de-normalised at once.
        """
        if self.scaler is None or self.model is None:
            raise RuntimeError("call fit() before predict()")
        if len(dataset) == 0:
            raise ValueError("empty dataset: no samples to predict")
        scaled = self.scaler.scale_dataset(dataset)
        seismic = np.stack([sample.seismic_vector() for sample in scaled])
        predictions = predict_in_batches(
            self.model, seismic,
            batch_size=self.config.training.eval_batch_size)
        if denormalize:
            return self.normalizer.denormalize(predictions)
        return predictions

    # ------------------------------------------------------------------ #
    # serialisation: save a trained pipeline, load it for inference
    # ------------------------------------------------------------------ #
    def save(self, path: str) -> None:
        """Persist the fitted pipeline (config, scaler, model, compute
        precision, history).

        The saved file is self-contained: :meth:`load` rebuilds a pipeline
        whose :meth:`predict` matches this one's output exactly, without
        refitting anything.
        """
        if self.scaler is None or self.model is None:
            raise RuntimeError("fit() (or build the components) before save()")
        payload: Dict[str, object] = {
            "version": PIPELINE_VERSION,
            "config": config_to_dict(self.config),
            "scaler": scaler_state(self.scaler),
            "model": self.model.state_dict(),
            "policy": compute_policy(self.model),
        }
        if self.training_result is not None:
            payload["final_metrics"] = dict(self.training_result.final_metrics)
            payload["history"] = self.training_result.logger.state_dict()
        save_checkpoint(path, payload)

    @classmethod
    def load(cls, path: str, rng: RngLike = None) -> "QuGeo":
        """Rebuild a pipeline saved with :meth:`save`, ready to predict.

        Pipeline files are pickles: only load files you trust (unpickling
        executes embedded code).  A model state holding NaN or inf raises
        ``ValueError`` naming the offending key, and so does a pipeline
        whose recorded ``policy`` is not the rebuilt model's (``"float64"``,
        or ``None`` for a classical model); a file without the key loads.
        """
        payload = load_checkpoint(path)
        version = payload.get("version")
        if version != PIPELINE_VERSION:
            raise ValueError(f"unsupported pipeline version {version!r}")
        for key, value in payload["model"].items():
            if not np.isfinite(np.asarray(value, dtype=np.float64)).all():
                raise ValueError(f"pipeline {path}: model state {key!r} "
                                 "holds NaN or inf")
        config = config_from_dict(payload["config"])
        pipeline = cls(config, rng=rng)
        pipeline.scaler = scaler_from_state(payload["scaler"], config.data)
        pipeline.build_model()
        check_compute_policy(payload, pipeline.model, f"pipeline {path}")
        pipeline.model.load_state_dict(payload["model"])
        if "final_metrics" in payload:
            logger = RunLogger(name=getattr(pipeline.model, "name", "quantum"))
            if "history" in payload:
                logger.load_state_dict(payload["history"])
            pipeline.training_result = TrainingResult(
                model=pipeline.model, logger=logger,
                final_metrics=dict(payload["final_metrics"]))
        return pipeline

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, object]:
        """Human-readable description of the configured pipeline."""
        label = _SCALING_LABELS[self.config.scaling_method]
        vqc = self.config.vqc
        info: Dict[str, object] = {
            "scaling_method": label,
            "decoder": "Q-M-PX" if vqc.decoder == "pixel" else "Q-M-LY",
            "data_qubits": vqc.data_qubits,
            "total_qubits": vqc.total_qubits,
            "ansatz_blocks": vqc.n_blocks,
            "encoder_capacity": vqc.input_size,
            "scaled_seismic_shape": self.config.data.scaled_seismic_shape,
            "scaled_velocity_shape": self.config.data.scaled_velocity_shape,
        }
        if self.model is not None:
            info["parameters"] = self.model.num_parameters()
        if self.training_result is not None:
            info.update(self.training_result.final_metrics)
        return info
