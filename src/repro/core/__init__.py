"""QuGeo core: the paper's contribution assembled from the substrates.

* :mod:`repro.core.config` — configuration dataclasses for every component,
* :mod:`repro.core.data_scaling` — QuGeoData: ``D-Sample``, ``Q-D-FW`` and
  ``Q-D-CNN`` data-scaling pipelines,
* :mod:`repro.core.vqc_model` — the QuGeoVQC model (ST encoder, U3+CU3
  ansatz, pixel-wise / layer-wise decoders) with analytic gradients,
* :mod:`repro.core.qubatch` — QuBatch batched forward/backward passes,
* :mod:`repro.core.classical_models` — parameter-matched CNN baselines
  (CNN-PX / CNN-LY) and the Q-D-CNN compressor,
* :mod:`repro.core.training` — the training engine: one :class:`Trainer`
  loop for every model family, with callbacks and checkpoint/resume,
* :mod:`repro.core.framework` — the end-to-end :class:`QuGeo` pipeline.

The experiment harness behind the paper's figures and tables (scale tiers,
cached dataset splits, scalers, trained models and ``evaluate_model``) is
:mod:`repro.core.experiment`; it is imported on its own, not by this
package.
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
    Callback,
    Checkpoint,
    DataSource,
    Model,
    TelemetryCallback,
    Trainer,
    TrainingResult,
    evaluate_data_source,
    predict_in_batches,
    select_step_strategy,
)
from repro.core.framework import QuGeo

__all__ = [
    "Trainer",
    "Model",
    "DataSource",
    "select_step_strategy",
    "predict_in_batches",
    "Callback",
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
    "TrainingResult",
    "QuGeo",
    "ArrayDataSource",
    "evaluate_data_source",
]
