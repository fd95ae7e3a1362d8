"""QuGeo core: the paper's contribution assembled from the substrates.

* :mod:`repro.core.config` — configuration dataclasses for every component,
* :mod:`repro.core.data_scaling` — QuGeoData: ``D-Sample``, ``Q-D-FW`` and
  ``Q-D-CNN`` data-scaling pipelines,
* :mod:`repro.core.vqc_model` — the QuGeoVQC model (ST encoder, U3+CU3
  ansatz, pixel-wise / layer-wise decoders) with analytic gradients,
* :mod:`repro.core.qubatch` — QuBatch batched forward/backward passes,
* :mod:`repro.core.classical_models` — parameter-matched CNN baselines
  (CNN-PX / CNN-LY) and the Q-D-CNN compressor,
* :mod:`repro.core.training` — the unified callback-driven training engine
  (one :class:`Trainer`, pluggable step strategies, checkpoint/resume),
* :mod:`repro.core.experiment` — the one experiment harness behind the
  paper's figures and tables: scale tiers, cached dataset splits, scalers
  and trained models, plus the Figure 7/9 profile analysis,
* :mod:`repro.core.framework` — the end-to-end :class:`QuGeo` pipeline.
"""

from repro.core.config import (
    QuGeoDataConfig,
    QuGeoVQCConfig,
    TrainingConfig,
    QuGeoConfig,
)
from repro.core.data_scaling import (
    ScaledSample,
    DSampleScaler,
    ForwardModelingScaler,
    CNNScaler,
)
from repro.core.vqc_model import QuGeoVQC
from repro.core.qubatch import QuBatchVQC
from repro.core.classical_models import (
    build_cnn_px,
    build_cnn_ly,
    CompressionCNN,
    ClassicalFWIModel,
)
from repro.core.training import (
    ArrayDataSource,
    BestModelTracker,
    Callback,
    Checkpoint,
    ClassicalTrainer,
    DataSource,
    EarlyStopping,
    EvalCallback,
    Model,
    QuantumTrainer,
    StepStrategy,
    TelemetryCallback,
    Trainer,
    TrainingResult,
    evaluate_data_source,
    predict_in_batches,
    select_step_strategy,
)
from repro.core.framework import QuGeo
from repro.core.experiment import evaluate_model

__all__ = [
    "Trainer",
    "Model",
    "DataSource",
    "StepStrategy",
    "select_step_strategy",
    "predict_in_batches",
    "Callback",
    "EvalCallback",
    "EarlyStopping",
    "BestModelTracker",
    "Checkpoint",
    "TelemetryCallback",
    "QuGeoDataConfig",
    "QuGeoVQCConfig",
    "TrainingConfig",
    "QuGeoConfig",
    "ScaledSample",
    "DSampleScaler",
    "ForwardModelingScaler",
    "CNNScaler",
    "QuGeoVQC",
    "QuBatchVQC",
    "build_cnn_px",
    "build_cnn_ly",
    "CompressionCNN",
    "ClassicalFWIModel",
    "QuantumTrainer",
    "ClassicalTrainer",
    "TrainingResult",
    "QuGeo",
    "evaluate_model",
    "ArrayDataSource",
    "evaluate_data_source",
]
