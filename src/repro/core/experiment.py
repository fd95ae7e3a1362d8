"""Experiment harness: the comparisons behind the paper's figures and tables.

Each function prepares scaled datasets, trains the relevant models and
returns :class:`ExperimentResult` rows that the benchmark scripts render next
to the paper's published values.  The helpers are deliberately configuration
driven so unit tests can run them at a tiny scale while the benchmarks use a
larger (still laptop-sized) budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.classical_models import ClassicalFWIModel, build_cnn_ly, build_cnn_px
from repro.core.config import QuGeoVQCConfig, TrainingConfig
from repro.core.qubatch import QuBatchVQC
from repro.core.training import (
    Callback,
    Trainer,
    TrainingResult,
    evaluate_data_source,
    evaluate_predictions,
    predict_in_batches,
)
from repro.core.vqc_model import QuGeoVQC
from repro.data.dataset import FWIDataset
from repro.metrics import mse, ssim
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.tables import format_table


@dataclass
class ExperimentResult:
    """One row of an experiment table.

    Attributes
    ----------
    model:
        Model label (``Q-M-PX``, ``Q-M-LY``, ``CNN-PX`` ...).
    dataset:
        Data-scaling label (``D-Sample``, ``Q-D-FW``, ``Q-D-CNN``).
    metrics:
        Metric name to value (``ssim``, ``mse``, ``parameters`` ...).
    extras:
        Anything else worth keeping (training history, predictions ...).
    """

    model: str
    dataset: str
    metrics: Dict[str, float] = field(default_factory=dict)
    extras: Dict[str, object] = field(default_factory=dict)

    def metric(self, key: str, default: float = float("nan")) -> float:
        return float(self.metrics.get(key, default))


def final_metric(outcome: TrainingResult, key: str) -> float:
    """Final-evaluation metric of a run, regardless of the split label.

    Trainers prefix ``final_metrics`` keys with the split they evaluated on
    (``test_`` normally, ``train_`` when no test set was given); experiment
    tables only care about the value.
    """
    for prefix in ("test", "train"):
        name = f"{prefix}_{key}"
        if name in outcome.final_metrics:
            return float(outcome.final_metrics[name])
    raise KeyError(f"no final metric {key!r} in {sorted(outcome.final_metrics)}")


def evaluate_model(model: Union[QuGeoVQC, QuBatchVQC, ClassicalFWIModel],
                   dataset: FWIDataset,
                   batch_size: Optional[int] = 256) -> Dict[str, float]:
    """SSIM / MSE of ``model`` on a scaled dataset.

    Every model family satisfies the Model protocol's ``predict_batch``, so
    the evaluation is one chunked pass regardless of the family.  The
    default ``batch_size`` matches ``TrainingConfig.eval_batch_size`` so
    peak memory stays bounded on large datasets; ``None`` evaluates in a
    single pass.  A streaming source (``gather`` protocol, e.g. a
    :class:`repro.data.store.ShardLoader`) is evaluated without stacking
    its seismic data — one gather pass through :func:`evaluate_data_source`.
    """
    if hasattr(dataset, "gather"):
        metrics = evaluate_data_source(model, dataset, split="eval",
                                       batch_size=batch_size)
        return {"ssim": metrics["eval_ssim"], "mse": metrics["eval_mse"]}
    seismic = np.stack([sample.seismic.reshape(-1) for sample in dataset])
    velocity = np.stack([sample.velocity for sample in dataset])
    predictions = predict_in_batches(model, seismic, batch_size=batch_size)
    return evaluate_predictions(predictions, velocity)


def train_model(model, train_set: FWIDataset, test_set: Optional[FWIDataset],
                training: TrainingConfig,
                callbacks: Sequence[Callback] = ()) -> TrainingResult:
    """Train any Model through the unified engine (one call site for all)."""
    return Trainer(training).train(model, train_set, test_set,
                                   callbacks=callbacks)


def _result_row(model, dataset_label: str,
                outcome: TrainingResult) -> ExperimentResult:
    """Standard table row: final SSIM/MSE and the parameter count."""
    metrics = {"ssim": final_metric(outcome, "ssim"),
               "mse": final_metric(outcome, "mse")}
    if hasattr(model, "num_parameters"):
        metrics["parameters"] = model.num_parameters()
    return ExperimentResult(model=getattr(model, "name", str(model)),
                            dataset=dataset_label, metrics=metrics,
                            extras={"result": outcome})


# --------------------------------------------------------------------------- #
# dataset preparation
# --------------------------------------------------------------------------- #
def prepare_dataset(config, seed: int = 0,
                    cache_dir=None,
                    workers: Optional[int] = None,
                    count: Optional[int] = None,
                    progress: bool = False,
                    stream: bool = False) -> FWIDataset:
    """Build (or load) the full-resolution dataset an experiment trains on.

    This is the ``--cache-dir`` entry point of the experiment drivers and
    benchmarks: with ``cache_dir`` the dataset is served from the sharded
    store (:func:`repro.data.store.open_or_build`) — a repeated run with the
    same ``(config, seed)`` performs zero forward-modelling calls — and a
    partial previous build is resumed.  ``workers`` fans generation over a
    process pool with bit-identical output; ``stream=True`` returns a
    :class:`repro.data.store.ShardLoader` instead of materializing.
    """
    from repro.data.openfwi import SyntheticOpenFWI
    from repro.data.store import open_or_build

    if cache_dir is not None:
        return open_or_build(config, seed=seed, cache_dir=cache_dir,
                             count=count, workers=workers, progress=progress,
                             stream=stream)
    return SyntheticOpenFWI(config, rng=int(seed)).build(
        count=count, workers=workers, progress=progress)


# --------------------------------------------------------------------------- #
# experiments
# --------------------------------------------------------------------------- #
def quantum_vs_classical(scaled: Dict[str, Tuple[FWIDataset, FWIDataset]],
                         vqc_config: QuGeoVQCConfig,
                         training: TrainingConfig,
                         rng: RngLike = None) -> List[ExperimentResult]:
    """Table 2: CNN-PX / CNN-LY vs Q-M-PX / Q-M-LY at matched parameter budgets."""
    rng = ensure_rng(rng)
    results: List[ExperimentResult] = []
    input_size = vqc_config.input_size
    output_shape = vqc_config.output_shape

    builders = {
        "CNN-PX": lambda: build_cnn_px(input_size, output_shape, rng=rng),
        "CNN-LY": lambda: build_cnn_ly(input_size, output_shape, rng=rng),
    }
    for name, builder in builders.items():
        for method, (train_set, test_set) in scaled.items():
            model = builder()
            outcome = train_model(model, train_set, test_set, training)
            results.append(_result_row(model, method, outcome))

    for decoder in ("pixel", "layer"):
        config = replace(vqc_config, decoder=decoder, n_batch_qubits=0)
        for method, (train_set, test_set) in scaled.items():
            model = QuGeoVQC(config, rng=rng)
            outcome = train_model(model, train_set, test_set, training)
            results.append(_result_row(model, method, outcome))
    return results


# --------------------------------------------------------------------------- #
# analysis helpers
# --------------------------------------------------------------------------- #
def vertical_profile(velocity_map: np.ndarray, column: Optional[int] = None) -> np.ndarray:
    """Vertical velocity profile at ``column`` (centre column by default).

    This is the quantity plotted in Figures 7(b) and 9(b) of the paper (the
    paper uses the profile at x = 400 m, roughly the centre of the model).
    """
    velocity_map = np.asarray(velocity_map, dtype=np.float64)
    if velocity_map.ndim != 2:
        raise ValueError("velocity_map must be 2-D")
    if column is None:
        column = velocity_map.shape[1] // 2
    if not 0 <= column < velocity_map.shape[1]:
        raise ValueError("column outside the map")
    return velocity_map[:, column]


def count_interface_matches(prediction_profile: np.ndarray,
                            truth_profile: np.ndarray,
                            tolerance: float = 0.05) -> Tuple[int, int]:
    """Count layer interfaces of the truth profile recovered by the prediction.

    An interface is a depth index where the ground-truth profile jumps by
    more than ``tolerance`` (in normalised velocity units); it counts as
    recovered when the prediction also jumps by more than half the truth's
    jump, in the same direction, at the same depth (+-1 row).

    Returns ``(matched, total)`` as used in the Figure 7/9 discussion.
    """
    prediction_profile = np.asarray(prediction_profile, dtype=np.float64).reshape(-1)
    truth_profile = np.asarray(truth_profile, dtype=np.float64).reshape(-1)
    if prediction_profile.shape != truth_profile.shape:
        raise ValueError("profiles must have the same length")
    truth_jumps = np.diff(truth_profile)
    pred_jumps = np.diff(prediction_profile)
    matched = 0
    total = 0
    for index, jump in enumerate(truth_jumps):
        if abs(jump) < tolerance:
            continue
        total += 1
        window = pred_jumps[max(0, index - 1):index + 2]
        if np.any(np.sign(window) == np.sign(jump)):
            if np.max(np.abs(window)) >= 0.5 * abs(jump):
                matched += 1
    return matched, total


def results_table(results: Iterable[ExperimentResult],
                  metrics: Sequence[str] = ("ssim", "mse"),
                  title: str = "") -> str:
    """Render experiment results as an aligned text table."""
    headers = ["model", "dataset"] + list(metrics)
    rows = []
    for result in results:
        rows.append([result.model, result.dataset] +
                    [result.metric(metric) for metric in metrics])
    return format_table(headers, rows, title=title)
