"""The unified training engine.

One :class:`Trainer` drives every model family in the stack.  The engine owns
the generic machinery — epoch loop, mini-batch shuffling, Adam + cosine
annealing, metric logging, checkpointing — while everything model-specific
lives in a pluggable :class:`StepStrategy` (how one mini-batch turns into
accumulated gradients) selected by :func:`select_step_strategy`:

* :class:`QuantumBatchedAdjointStep` — :class:`~repro.core.vqc_model.QuGeoVQC`
  on either engine: one reversible forward/backward sweep per mini-batch.
* :class:`QuBatchStep` — :class:`~repro.core.qubatch.QuBatchVQC`, whose
  mini-batch size is the circuit's own batch capacity.
* :class:`ClassicalAutogradStep` — :class:`~repro.core.classical_models.ClassicalFWIModel`
  through the reverse-mode autograd of :mod:`repro.nn`.

Models plug in through the :class:`Model` protocol (``parameter_tensors`` /
``predict_batch`` / ``state_dict`` / ``load_state_dict``), and side concerns
ride along as :class:`Callback` objects: test-set evaluation cadence
(:class:`EvalCallback`), :class:`EarlyStopping`, :class:`BestModelTracker`
and periodic :class:`Checkpoint` saves.  A checkpoint captures the full
training state — model arrays, optimiser moments, scheduler position, the
shuffle generator's bit-generator state and the metric history — so a run
resumed with ``Trainer.train(..., resume_from=path)`` reproduces the
uninterrupted run's trajectory exactly.

The paper's recipe is unchanged: Adam with a configurable initial learning
rate (0.1 in the paper), cosine annealing over the epoch budget and
mini-batch updates.  :class:`QuantumTrainer` and :class:`ClassicalTrainer`
remain as backwards-compatible aliases of the one engine.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import warnings
from dataclasses import dataclass, field
from time import perf_counter
from typing import (
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

import numpy as np

from repro.core.classical_models import ClassicalFWIModel
from repro.core.config import TrainingConfig
from repro.core.qubatch import QuBatchVQC
from repro.core.vqc_model import QuGeoVQC
from repro.data.dataset import FWIDataset
from repro.metrics import mse, ssim
from repro.nn import Adam, CosineAnnealingLR, MSELoss, Tensor
from repro.telemetry import get_telemetry
from repro.utils.logging import RunLogger
from repro.utils.rng import ensure_rng
from repro.utils.serialization import (
    BACKUP_SUFFIX,
    resolve_checkpoint,
    save_checkpoint,
)

# Version 2: dataset fingerprints are computed from per-sample content sums
# (shared with repro.data.store.content_fingerprint) instead of full-array
# sums — the two differ in the last float bits at scale, so version-1
# checkpoints would fail the exact fingerprint comparison with a misleading
# "different training samples" error instead of a clear version mismatch.
CHECKPOINT_VERSION = 2


def compute_policy(model) -> Optional[str]:
    """Name of the dtype policy ``model`` computes in (``"float64"`` or
    ``"float32"``); ``None`` for a model without a simulation backend."""
    backend = getattr(model, "backend", None)
    return None if backend is None else backend.policy.name


def check_compute_policy(payload: Dict[str, object], model,
                         source: str) -> None:
    """Refuse a ``payload`` written under another dtype policy than
    ``model`` computes in: resuming or serving it would silently change
    precision.  Files written before the policy was recorded load as
    before."""
    current = compute_policy(model)
    if "policy" in payload and payload["policy"] != current:
        raise ValueError(
            f"{source} was computed under the {payload['policy']!r} dtype "
            f"policy, but this model computes under {current!r}")


# --------------------------------------------------------------------------- #
# the Model protocol
# --------------------------------------------------------------------------- #
@runtime_checkable
class Model(Protocol):
    """What the training engine requires of a trainable model.

    :class:`~repro.core.vqc_model.QuGeoVQC`,
    :class:`~repro.core.qubatch.QuBatchVQC` and
    :class:`~repro.core.classical_models.ClassicalFWIModel` all satisfy it,
    so one :class:`Trainer` (and one checkpoint format) serves the whole
    stack.
    """

    def parameter_tensors(self) -> Tuple[Tensor, ...]:
        """Tensors the optimiser updates."""

    def predict_batch(self, seismic_batch: Sequence[np.ndarray]) -> np.ndarray:
        """Predict normalised velocity maps for a batch of flat samples."""

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of every trainable array, keyed by name."""

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load arrays produced by :meth:`state_dict`."""


@runtime_checkable
class DataSource(Protocol):
    """What the training engine requires of a dataset source.

    :class:`ArrayDataSource` (stacked in-memory arrays),
    :class:`repro.data.store.ShardLoader` (streaming on-disk shards) and
    :class:`repro.robustness.perturbations.PerturbedView` (perturbations
    applied on gather) all satisfy it, so the trainer never needs to know
    where samples physically live.
    """

    def __len__(self) -> int:
        """Number of samples."""

    def gather(self, indices: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """``(flattened seismic, velocity maps)`` for the given sample rows."""

    def fingerprint(self) -> Dict[str, object]:
        """Cheap order-sensitive identity (see ``content_fingerprint``)."""


# --------------------------------------------------------------------------- #
# results and shared helpers
# --------------------------------------------------------------------------- #
@dataclass
class TrainingResult:
    """Outcome of one training run.

    Attributes
    ----------
    model:
        The trained model (mutated in place by the trainer).
    logger:
        Per-epoch metric history (``train_loss``, ``test_ssim``, ``test_mse``).
    final_metrics:
        Metrics of the trained model on the evaluation set.  Keys are
        prefixed with the split they were computed on: ``test_ssim`` /
        ``test_mse`` when a test set was provided, ``train_ssim`` /
        ``train_mse`` when the trainer had to fall back to the training data.
    """

    model: object
    logger: RunLogger
    final_metrics: Dict[str, float] = field(default_factory=dict)

    def history(self, key: str) -> List[float]:
        """Shortcut to the logger's history for ``key``."""
        return self.logger.history(key)


def _dataset_arrays(dataset: FWIDataset):
    """Stack a scaled dataset into (flattened seismic, velocity maps)."""
    seismic = np.stack([sample.seismic.reshape(-1) for sample in dataset])
    velocity = np.stack([sample.velocity for sample in dataset])
    return seismic, velocity


class ArrayDataSource:
    """In-memory data source: stacked ``(flattened seismic, velocity)``.

    The engine consumes datasets through this small duck type — ``__len__``,
    ``gather(indices)`` and ``fingerprint()`` — so a streaming
    :class:`repro.data.store.ShardLoader` (which implements the same
    protocol against on-disk shards) feeds the trainer without the full
    arrays ever being materialized.
    """

    def __init__(self, seismic: np.ndarray, velocity: np.ndarray) -> None:
        self.seismic = np.asarray(seismic)
        self.velocity = np.asarray(velocity)

    def __len__(self) -> int:
        return int(self.seismic.shape[0])

    def gather(self, indices: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        return self.seismic[indices], self.velocity[indices]

    def fingerprint(self) -> Dict[str, object]:
        from repro.data.store import content_fingerprint
        n = self.seismic.shape[0]
        return content_fingerprint(
            self.seismic.shape, self.velocity.shape,
            self.seismic.reshape(n, -1).sum(axis=1),
            self.velocity.reshape(n, -1).sum(axis=1))


def _as_data_source(dataset) -> Optional[DataSource]:
    """Coerce a dataset (or ``None``) into the :class:`DataSource` protocol.

    Objects already implementing ``gather``/``fingerprint``/``__len__``
    (e.g. :class:`repro.data.store.ShardLoader`) pass through untouched;
    anything else is stacked into an :class:`ArrayDataSource`.
    """
    if dataset is None:
        return None
    if hasattr(dataset, "gather") and hasattr(dataset, "fingerprint"):
        return dataset
    return ArrayDataSource(*_dataset_arrays(dataset))


def _dataset_fingerprint(source: Optional[DataSource]
                         ) -> Optional[Dict[str, object]]:
    """Cheap identity of a dataset source.

    Shapes, content sums, and a position-weighted digest — the latter makes
    the fingerprint order-sensitive, so the same samples in a different
    order (which changes what the restored shuffle state selects) are
    detected too.  Delegated to the source, so a streaming ShardLoader
    computes it from its manifest without touching the shards.
    """
    if source is None:
        return None
    return source.fingerprint()


def evaluate_predictions(predictions: np.ndarray,
                         targets: np.ndarray) -> Dict[str, float]:
    """Average SSIM and MSE of a batch of predicted velocity maps."""
    if predictions.shape != targets.shape:
        raise ValueError("prediction/target shape mismatch")
    # ssim broadcasts over the leading axis of an (N, H, W) stack, so the
    # whole batch is scored with one set of filter passes.
    ssim_values = ssim(predictions, targets, data_range=1.0)
    return {"ssim": float(np.mean(ssim_values)),
            "mse": mse(predictions, targets)}


def predict_in_batches(model: Model, seismic,
                       batch_size: Optional[int] = None) -> np.ndarray:
    """Predict a whole dataset in bounded-memory chunks.

    ``seismic`` is either a stacked ``(n, features)`` array or a streaming
    data source (``gather`` protocol, e.g. a
    :class:`repro.data.store.ShardLoader`) — the latter never materializes
    the full seismic array.  ``batch_size=None`` runs one chunk.  Models
    with an intrinsic circuit capacity (QuBatch) split chunks further inside
    their own ``predict_batch``.  Chunked and unchunked prediction agree
    because every model decodes samples independently.
    """
    if hasattr(seismic, "gather"):
        source = seismic
        n_samples = len(source)
        if n_samples == 0:
            raise ValueError("empty evaluation set")
        limit = n_samples if batch_size is None else max(1, int(batch_size))
        chunks = []
        for start in range(0, n_samples, limit):
            block, _ = source.gather(
                np.arange(start, min(start + limit, n_samples)))
            chunks.append(model.predict_batch(block))
    else:
        seismic = np.asarray(seismic)
        n_samples = seismic.shape[0]
        if n_samples == 0:
            raise ValueError("empty evaluation set")
        limit = n_samples if batch_size is None else max(1, int(batch_size))
        chunks = [model.predict_batch(seismic[start:start + limit])
                  for start in range(0, n_samples, limit)]
    if len(chunks) == 1:
        return np.asarray(chunks[0])
    return np.concatenate(chunks, axis=0)


def evaluate_data_source(model: Model, source, split: str = "test",
                         batch_size: Optional[int] = None) -> Dict[str, float]:
    """Split-prefixed SSIM / MSE of ``model`` over a data source.

    Seismic data streams through ``source.gather`` in ``batch_size`` chunks;
    only the (small) velocity maps and predictions are held in full.
    """
    n_samples = len(source)
    if n_samples == 0:
        raise ValueError("empty evaluation set")
    limit = n_samples if batch_size is None else max(1, int(batch_size))
    predictions, targets = [], []
    with get_telemetry().span("eval"):
        for start in range(0, n_samples, limit):
            seismic, velocity = source.gather(
                np.arange(start, min(start + limit, n_samples)))
            predictions.append(model.predict_batch(seismic))
            targets.append(velocity)
        metrics = evaluate_predictions(np.concatenate(predictions, axis=0),
                                       np.concatenate(targets, axis=0))
    return {f"{split}_ssim": metrics["ssim"],
            f"{split}_mse": metrics["mse"]}


# --------------------------------------------------------------------------- #
# step strategies
# --------------------------------------------------------------------------- #
class StepStrategy:
    """How one mini-batch becomes accumulated gradients.

    The trainer calls ``optimizer.zero_grad()`` before and
    ``optimizer.step()`` after :meth:`step`, so a strategy only accumulates
    gradients into the model's parameter tensors and returns the mini-batch
    loss.
    """

    name = "base"

    def batch_size(self, model: Model, config: TrainingConfig) -> int:
        """Mini-batch size this strategy trains with."""
        return config.batch_size

    def step(self, model: Model, seismic: np.ndarray,
             velocity: np.ndarray) -> float:
        """Accumulate gradients of one mini-batch; return its mean loss."""
        raise NotImplementedError


class QuantumBatchedAdjointStep(StepStrategy):
    """One stacked forward/backward sweep per mini-batch (QuGeoVQC)."""

    name = "quantum-batched-adjoint"

    def step(self, model: QuGeoVQC, seismic: np.ndarray,
             velocity: np.ndarray) -> float:
        return model.accumulate_gradients_batch(seismic, velocity)


class QuBatchStep(StepStrategy):
    """QuBatch SIMD execution: the circuit itself carries the mini-batch."""

    name = "qubatch"

    def batch_size(self, model: QuBatchVQC, config: TrainingConfig) -> int:
        return model.batch_capacity

    def step(self, model: QuBatchVQC, seismic: np.ndarray,
             velocity: np.ndarray) -> float:
        return model.accumulate_gradients(seismic, velocity)


class ClassicalAutogradStep(StepStrategy):
    """Reverse-mode autograd through the :mod:`repro.nn` graph."""

    name = "classical-autograd"

    def __init__(self) -> None:
        self._loss_fn = MSELoss()

    def step(self, model: ClassicalFWIModel, seismic: np.ndarray,
             velocity: np.ndarray) -> float:
        output = model.forward(seismic)
        if model.decoder == "pixel":
            prediction = output.reshape(*velocity.shape)
        else:
            prediction = model.expand_prediction(output)
        loss = self._loss_fn(prediction, velocity)
        loss.backward()
        return loss.item()


def select_step_strategy(model: Model) -> StepStrategy:
    """Pick the step strategy matching ``model``.

    Custom model classes must either match one of the known families or be
    trained with an explicit ``Trainer(config, strategy=...)``.
    """
    if isinstance(model, QuBatchVQC):
        return QuBatchStep()
    if isinstance(model, ClassicalFWIModel):
        return ClassicalAutogradStep()
    if hasattr(model, "accumulate_gradients_batch"):
        return QuantumBatchedAdjointStep()
    raise TypeError(
        f"no step strategy for {type(model).__name__}: the model matches no "
        "known family and has no accumulate_gradients_batch method — pass an "
        "explicit strategy to Trainer(config, strategy=...)")


# --------------------------------------------------------------------------- #
# callbacks
# --------------------------------------------------------------------------- #
@dataclass
class TrainerState:
    """Mutable context the engine shares with its callbacks."""

    trainer: "Trainer"
    config: TrainingConfig
    model: Model
    strategy: StepStrategy
    optimizer: Adam
    scheduler: CosineAnnealingLR
    rng: np.random.Generator
    logger: RunLogger
    #: Data sources (``ArrayDataSource`` or a streaming ShardLoader).
    train_source: object = None
    test_source: Optional[object] = None
    callbacks: List["Callback"] = field(default_factory=list)
    #: Dataset fingerprints, computed once per run (the arrays are immutable
    #: for the whole train() call) and embedded in every checkpoint.
    train_fingerprint: Optional[Dict[str, object]] = None
    test_fingerprint: Optional[Dict[str, object]] = None
    epoch: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    stop_training: bool = False
    stop_reason: str = ""
    #: Set by callbacks that overwrite the model's weights (e.g. a best-model
    #: restore) so cached evaluations of the old weights are not reused.
    model_mutated: bool = False


class Callback:
    """Hooks into the engine's epoch loop.

    ``on_train_begin`` runs once per :meth:`Trainer.train` call, before any
    checkpoint is restored — stateful callbacks reset their per-run state
    there, so one instance can be reused across runs.  ``on_epoch_end`` runs
    after the epoch's updates but *before* the metrics are logged, so
    callbacks can contribute metrics (this is how test-set evaluation is
    wired in).  ``on_epoch_logged`` runs after logging, so callbacks that
    persist or act on the recorded state (checkpoints, early stopping) see a
    history that includes the current epoch.

    Checkpoints include every callback's :meth:`state_dict` (matched back by
    position and class name on resume), so resuming with the same callback
    list continues stateful callbacks — patience counters, best-model
    trackers, cached evaluations — exactly where they left off.
    """

    def on_train_begin(self, state: TrainerState) -> None:
        pass

    def on_resume(self, state: TrainerState) -> None:
        """Called after this callback's state is restored from a checkpoint.

        A callback whose restored state implies the run should not continue
        (e.g. an already-fired early stop) re-asserts ``state.stop_training``
        here; a checkpoint that merely interrupted a healthy run resumes.
        """

    def on_epoch_end(self, state: TrainerState) -> None:
        pass

    def on_epoch_logged(self, state: TrainerState) -> None:
        pass

    def on_train_end(self, state: TrainerState) -> None:
        pass

    def state_dict(self) -> Dict[str, object]:
        """Per-run state worth checkpointing (stateless callbacks: empty)."""
        return {}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore state produced by :meth:`state_dict`."""

    @property
    def checkpoint_key(self) -> Optional[str]:
        """Identity used to pair saved state with callbacks on resume.

        Callbacks of the same class are told apart by this key (e.g. the
        monitored metric), so two ``EarlyStopping`` instances cannot claim
        each other's patience counters when the caller reorders them.
        """
        return None


class EvalCallback(Callback):
    """Evaluate the test split on the configured cadence.

    Metrics are written into ``state.metrics`` before logging.  The last
    evaluation is cached as ``(epoch, metrics)`` so the trainer can reuse a
    final-epoch evaluation for ``final_metrics`` instead of recomputing it.
    """

    def __init__(self, every: Optional[int] = None,
                 batch_size: Optional[int] = None) -> None:
        if every is not None and every < 1:
            raise ValueError("every must be at least 1")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        self.every = every
        self.batch_size = batch_size
        self.last_eval: Optional[Tuple[int, Dict[str, float]]] = None

    @property
    def checkpoint_key(self) -> str:
        return f"{self.every}|{self.batch_size}"

    def on_train_begin(self, state: TrainerState) -> None:
        self.last_eval = None

    def state_dict(self) -> Dict[str, object]:
        if self.last_eval is None:
            return {}
        return {"last_eval": self.last_eval}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        cached = state.get("last_eval")
        self.last_eval = (int(cached[0]), dict(cached[1])) if cached else None

    def should_evaluate(self, state: TrainerState) -> bool:
        every = self.every if self.every is not None else state.config.eval_every
        return ((state.epoch + 1) % every == 0
                or state.epoch == state.config.epochs - 1)

    def on_epoch_end(self, state: TrainerState) -> None:
        if state.test_source is None or not self.should_evaluate(state):
            return
        batch_size = (self.batch_size if self.batch_size is not None
                      else state.config.eval_batch_size)
        metrics = evaluate_data_source(state.model, state.test_source,
                                       batch_size=batch_size)
        state.metrics.update(metrics)
        self.last_eval = (state.epoch, dict(metrics))


class TelemetryCallback(Callback):
    """Feed per-epoch timing from the telemetry registry into the metric log.

    Added automatically by :meth:`Trainer.train` whenever telemetry is
    recording (``QUGEO_TELEMETRY=summary``/``trace``); appended after every
    other callback so the span totals it differences already include the
    current epoch's evaluation.  Contributed metrics:

    * ``epoch_seconds`` — wall time since the previous epoch's hook (the
      first epoch measures from ``on_train_begin``), so it includes the
      post-logging hooks of the *previous* epoch (checkpoint saves, ...);
    * ``step_seconds`` / ``eval_seconds`` — per-epoch deltas of the matching
      telemetry span totals (summed over every path ending in that leaf).

    Stateless as far as checkpoints are concerned (``state_dict`` is empty):
    a resumed run simply restarts its deltas from the resume point, and runs
    recorded with telemetry off resume cleanly with it on (and vice versa).
    """

    #: span leaf name -> metric key for the per-epoch delta.
    SPAN_METRICS = {"step": "step_seconds", "eval": "eval_seconds"}

    def __init__(self) -> None:
        self._mark: Optional[float] = None
        self._baseline: Dict[str, float] = {}

    def _leaf_totals(self, telemetry) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for path, total in telemetry.span_totals().items():
            leaf = path.rsplit("/", 1)[-1]
            if leaf in self.SPAN_METRICS:
                totals[leaf] = totals.get(leaf, 0.0) + total
        return totals

    def on_train_begin(self, state: TrainerState) -> None:
        self._mark = perf_counter()
        self._baseline = self._leaf_totals(get_telemetry())

    def on_epoch_end(self, state: TrainerState) -> None:
        telemetry = get_telemetry()
        if not telemetry.enabled:
            return
        now = perf_counter()
        if self._mark is not None:
            state.metrics["epoch_seconds"] = now - self._mark
        self._mark = now
        totals = self._leaf_totals(telemetry)
        for leaf, metric in self.SPAN_METRICS.items():
            delta = totals.get(leaf, 0.0) - self._baseline.get(leaf, 0.0)
            if delta > 0.0:
                state.metrics[metric] = delta
        self._baseline = totals
        telemetry.counter("trainer.epochs").inc()


class EarlyStopping(Callback):
    """Stop training when a monitored metric stops improving."""

    def __init__(self, monitor: str = "train_loss", patience: int = 5,
                 min_delta: float = 0.0, mode: str = "min") -> None:
        if patience < 1:
            raise ValueError("patience must be at least 1")
        if mode not in ("min", "max"):
            raise ValueError("mode must be 'min' or 'max'")
        self.monitor = monitor
        self.patience = int(patience)
        self.min_delta = float(min_delta)
        self.mode = mode
        self.best: Optional[float] = None
        self.wait = 0
        self.stopped_epoch: Optional[int] = None

    def on_train_begin(self, state: TrainerState) -> None:
        self.best = None
        self.wait = 0
        self.stopped_epoch = None

    def state_dict(self) -> Dict[str, object]:
        return {"best": self.best, "wait": self.wait,
                "stopped_epoch": self.stopped_epoch}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        self.best = state["best"]
        self.wait = int(state["wait"])
        self.stopped_epoch = state["stopped_epoch"]

    def on_resume(self, state: TrainerState) -> None:
        # A checkpoint written at the stopping epoch stays stopped: the run
        # converged, it was not interrupted.
        if self.stopped_epoch is not None:
            state.stop_training = True
            state.stop_reason = (f"early stopping fired at epoch "
                                 f"{self.stopped_epoch} before the checkpoint")

    @property
    def checkpoint_key(self) -> str:
        return f"{self.monitor}|{self.mode}|{self.patience}|{self.min_delta}"

    def _improved(self, value: float) -> bool:
        if self.best is None:
            return True
        if self.mode == "min":
            return value < self.best - self.min_delta
        return value > self.best + self.min_delta

    def on_epoch_logged(self, state: TrainerState) -> None:
        value = state.metrics.get(self.monitor)
        if value is None:
            return
        if self._improved(float(value)):
            self.best = float(value)
            self.wait = 0
            return
        self.wait += 1
        if self.wait >= self.patience:
            self.stopped_epoch = state.epoch
            state.stop_training = True
            state.stop_reason = (f"early stopping: no {self.monitor} "
                                 f"improvement in {self.patience} epochs")


class BestModelTracker(Callback):
    """Track (and optionally restore) the best model seen during training."""

    def __init__(self, monitor: str = "train_loss", mode: str = "min",
                 restore_best: bool = False) -> None:
        if mode not in ("min", "max"):
            raise ValueError("mode must be 'min' or 'max'")
        self.monitor = monitor
        self.mode = mode
        self.restore_best = restore_best
        self.best_value: Optional[float] = None
        self.best_epoch: Optional[int] = None
        self.best_state: Optional[Dict[str, np.ndarray]] = None

    def on_train_begin(self, state: TrainerState) -> None:
        self.best_value = None
        self.best_epoch = None
        self.best_state = None

    def state_dict(self) -> Dict[str, object]:
        return {"best_value": self.best_value, "best_epoch": self.best_epoch,
                "best_state": self.best_state}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        self.best_value = state["best_value"]
        self.best_epoch = state["best_epoch"]
        self.best_state = state["best_state"]

    @property
    def checkpoint_key(self) -> str:
        return f"{self.monitor}|{self.mode}"

    def _improved(self, value: float) -> bool:
        if self.best_value is None:
            return True
        return (value < self.best_value if self.mode == "min"
                else value > self.best_value)

    def on_epoch_logged(self, state: TrainerState) -> None:
        value = state.metrics.get(self.monitor)
        if value is None or not self._improved(float(value)):
            return
        self.best_value = float(value)
        self.best_epoch = state.epoch
        self.best_state = state.model.state_dict()

    def on_train_end(self, state: TrainerState) -> None:
        if self.restore_best and self.best_state is not None:
            state.model.load_state_dict(self.best_state)
            state.model_mutated = True


class Checkpoint(Callback):
    """Persist the full training state every ``every`` epochs.

    The file at ``path`` is overwritten with the latest state, captured
    *after* the epoch's metrics are logged and after every other callback's
    hooks have run (the trainer orders Checkpoint instances last), so
    ``Trainer.train(..., resume_from=path)`` picks the run up at the next
    epoch with an intact metric history, optimiser state, shuffle-generator
    state and up-to-date callback state.
    """

    def __init__(self, path: str, every: int = 1,
                 save_on_train_end: bool = False) -> None:
        if every < 1:
            raise ValueError("every must be at least 1")
        self.path = path
        self.every = int(every)
        self.save_on_train_end = save_on_train_end

    def _save(self, state: TrainerState) -> None:
        # Rotate the previous checkpoint to ``.bak`` before overwriting, so
        # a corrupted primary (torn copy, flipped bits after the atomic
        # write) still leaves a last-good snapshot for resume_from to fall
        # back to.
        if os.path.exists(self.path):
            os.replace(self.path, str(self.path) + BACKUP_SUFFIX)
        save_checkpoint(self.path, state.trainer.capture_state(state))

    def on_epoch_logged(self, state: TrainerState) -> None:
        if (state.epoch + 1) % self.every == 0:
            self._save(state)

    def on_train_end(self, state: TrainerState) -> None:
        # A callback that replaced the model's weights (best-model restore)
        # left optimiser/scheduler/RNG state from a different epoch than the
        # weights — such a mixture is not a point on any real trajectory, so
        # it must not be written as a resumable checkpoint.
        if self.save_on_train_end and not state.model_mutated:
            self._save(state)


# --------------------------------------------------------------------------- #
# the engine
# --------------------------------------------------------------------------- #
class Trainer:
    """Mini-batch Adam training of any :class:`Model` in the stack.

    Parameters
    ----------
    config:
        Optimiser settings shared by every model family.
    strategy:
        Explicit :class:`StepStrategy`; ``None`` selects one from the model
        (:func:`select_step_strategy`).
    """

    def __init__(self, config: TrainingConfig = None,
                 strategy: Optional[StepStrategy] = None) -> None:
        self.config = config or TrainingConfig()
        self.strategy = strategy

    def train(self, model: Model,
              train_dataset: FWIDataset,
              test_dataset: Optional[FWIDataset] = None,
              logger: Optional[RunLogger] = None,
              callbacks: Sequence[Callback] = (),
              resume_from: Union[str, Dict[str, object], None] = None
              ) -> TrainingResult:
        """Train ``model`` on a scaled dataset.

        Parameters
        ----------
        model:
            Any object satisfying the :class:`Model` protocol.
        train_dataset, test_dataset:
            Scaled datasets; the test split is evaluated on the
            ``eval_every`` cadence and for ``final_metrics``.
        logger:
            Metric sink; a fresh :class:`~repro.utils.logging.RunLogger` by
            default.
        callbacks:
            Extra :class:`Callback` hooks.  An :class:`EvalCallback` is
            added automatically unless one is supplied.
        resume_from:
            Path to (or payload of) a checkpoint written by
            :class:`Checkpoint` / :meth:`capture_state`.  Restores model,
            optimiser, scheduler, RNG and metric history, then continues
            from the next epoch — the resumed trajectory matches the
            uninterrupted one exactly.  Checkpoints are pickle files: only
            resume from files you trust.
        """
        config = self.config
        strategy = self.strategy or select_step_strategy(model)
        rng = ensure_rng(config.seed)
        logger = logger or RunLogger(name=getattr(model, "name", strategy.name),
                                     verbose=config.verbose,
                                     print_every=config.eval_every)
        train_source = _as_data_source(train_dataset)
        test_source = (_as_data_source(test_dataset)
                       if test_dataset is not None and len(test_dataset)
                       else None)

        optimizer = Adam(model.parameter_tensors(), lr=config.learning_rate)
        scheduler = CosineAnnealingLR(optimizer, t_max=config.epochs,
                                      eta_min=config.eta_min)

        callbacks = list(callbacks)
        evaluator = next((cb for cb in callbacks
                          if isinstance(cb, EvalCallback)), None)
        if evaluator is None:
            evaluator = EvalCallback()
            callbacks.insert(0, evaluator)

        telemetry = get_telemetry()
        if telemetry.enabled and not any(isinstance(cb, TelemetryCallback)
                                         for cb in callbacks):
            # Appended last so the span totals it differences already include
            # this epoch's evaluation (EvalCallback runs earlier).
            callbacks.append(TelemetryCallback())

        state = TrainerState(trainer=self, config=config, model=model,
                             strategy=strategy, optimizer=optimizer,
                             scheduler=scheduler, rng=rng, logger=logger,
                             train_source=train_source,
                             test_source=test_source, callbacks=callbacks,
                             train_fingerprint=_dataset_fingerprint(train_source),
                             test_fingerprint=_dataset_fingerprint(test_source))

        # Reset per-run callback state first so a restore below re-loads the
        # checkpointed state on top of a clean slate.
        for callback in callbacks:
            callback.on_train_begin(state)

        start_epoch = 0
        if resume_from is not None:
            payload = self._resolve_resume(resume_from, telemetry)
            if payload is not None:
                start_epoch = self._restore(state, payload)

        n_samples = len(train_source)
        batch_size = strategy.batch_size(model, config)
        last_epoch_run = start_epoch - 1
        # Keep state.epoch consistent even when the loop body never runs
        # (resuming a finished or already-stopped run): a train-end
        # checkpoint must re-record the restored epoch, not epoch 1.
        state.epoch = start_epoch - 1
        for epoch in range(start_epoch, config.epochs):
            if state.stop_training:
                # A restored checkpoint may carry a stop decision (e.g. the
                # run early-stopped right before it was saved) — honour it
                # instead of training past the stop.
                break
            state.epoch = epoch
            # Capture before the scheduler advances so the log records the
            # LR the optimiser actually used for this epoch's updates.
            epoch_lr = optimizer.lr
            order = rng.permutation(n_samples)
            epoch_loss = 0.0
            n_batches = 0
            nan_batch_loss: Optional[float] = None
            with telemetry.span("trainer.epoch"):
                for start in range(0, n_samples, batch_size):
                    with telemetry.span("step"):
                        batch_seismic, batch_velocity = train_source.gather(
                            order[start:start + batch_size])
                        optimizer.zero_grad()
                        batch_loss = strategy.step(model, batch_seismic,
                                                   batch_velocity)
                        if not np.isfinite(batch_loss):
                            # Halt before the poisoned update is applied —
                            # the model's weights are still the last finite
                            # iterate.  "raise" surfaces the batch; "stop"
                            # ends the run with a nan_loss flag in history.
                            telemetry.counter("trainer.nan_loss").inc()
                            if config.nan_policy == "raise":
                                raise FloatingPointError(
                                    f"non-finite loss {batch_loss!r} in "
                                    f"epoch {epoch} (batch at sample "
                                    f"{start})")
                            nan_batch_loss = float(batch_loss)
                            state.stop_training = True
                            state.stop_reason = (
                                f"non-finite loss {batch_loss!r} in epoch "
                                f"{epoch}; optimiser update skipped")
                            break
                        epoch_loss += batch_loss
                        optimizer.step()
                    n_batches += 1
                scheduler.step()
                train_loss = (epoch_loss / max(1, n_batches)
                              if nan_batch_loss is None else nan_batch_loss)
                state.metrics = {"train_loss": train_loss, "lr": epoch_lr}
                if nan_batch_loss is not None:
                    state.metrics["nan_loss"] = 1.0
                for callback in callbacks:
                    callback.on_epoch_end(state)
            logger.log(epoch, **state.metrics)
            # Checkpoint hooks run after every other callback so the saved
            # snapshot includes their up-to-date state for this epoch
            # (patience counters, best-model trackers) regardless of the
            # order the caller listed them in.
            for callback in self._checkpoints_last(callbacks):
                callback.on_epoch_logged(state)
            last_epoch_run = epoch
            if state.stop_training:
                if config.verbose and state.stop_reason:
                    print(f"[{logger.name}] stopping at epoch {epoch}: "
                          f"{state.stop_reason}", file=sys.stderr)
                break

        # on_train_end runs first (it may replace the model's weights, e.g.
        # a best-model restore); the final evaluation then scores the model
        # the caller actually receives.
        for callback in self._checkpoints_last(callbacks):
            callback.on_train_end(state)
        final_metrics = self._final_metrics(state, evaluator, last_epoch_run)
        return TrainingResult(model=model, logger=logger,
                              final_metrics=final_metrics)

    @staticmethod
    def _checkpoints_last(callbacks: Sequence[Callback]) -> List[Callback]:
        """Stable order with every :class:`Checkpoint` moved to the end."""
        ordinary = [cb for cb in callbacks if not isinstance(cb, Checkpoint)]
        snapshots = [cb for cb in callbacks if isinstance(cb, Checkpoint)]
        return ordinary + snapshots

    # ------------------------------------------------------------------ #
    # final metrics (reusing the last epoch's evaluation when possible)
    # ------------------------------------------------------------------ #
    def _final_metrics(self, state: TrainerState, evaluator: EvalCallback,
                       last_epoch_run: int) -> Dict[str, float]:
        batch_size = (evaluator.batch_size if evaluator.batch_size is not None
                      else state.config.eval_batch_size)
        if state.test_source is not None:
            cached = evaluator.last_eval
            if (cached is not None and cached[0] == last_epoch_run
                    and not state.model_mutated):
                # The final epoch was just evaluated in the epoch loop —
                # reuse it instead of running the test set a second time.
                return dict(cached[1])
            return evaluate_data_source(state.model, state.test_source,
                                        batch_size=batch_size)
        return evaluate_data_source(state.model, state.train_source,
                                    split="train", batch_size=batch_size)

    # ------------------------------------------------------------------ #
    # checkpoint capture / restore
    # ------------------------------------------------------------------ #
    @staticmethod
    def _resolve_resume(resume_from: Union[str, Dict[str, object]],
                        telemetry) -> Optional[Dict[str, object]]:
        """Load the resume checkpoint, falling back to last-good on damage.

        An in-memory payload passes through.  A path is resolved through
        :func:`repro.utils.serialization.resolve_checkpoint`: a corrupt or
        truncated primary falls back to its ``.bak`` rotation with a warning
        (and a ``trainer.checkpoint.fallback`` telemetry count); when no
        candidate loads the run starts fresh with a warning
        (``trainer.checkpoint.start_fresh``) instead of crashing — the
        serving-system posture is "a damaged checkpoint costs retraining
        time, never an outage".
        """
        if isinstance(resume_from, dict):
            return resume_from
        payload, loaded_path, problems = resolve_checkpoint(resume_from)
        if payload is None:
            telemetry.counter("trainer.checkpoint.start_fresh").inc()
            warnings.warn(
                "resume_from checkpoint unusable, starting fresh "
                f"({'; '.join(problems)})", stacklevel=3)
            return None
        if loaded_path != str(resume_from):
            telemetry.counter("trainer.checkpoint.fallback").inc()
            warnings.warn(
                f"resume_from checkpoint damaged, resuming from last-good "
                f"{loaded_path} ({'; '.join(problems)})", stacklevel=3)
        return payload

    def capture_state(self, state: TrainerState) -> Dict[str, object]:
        """Snapshot everything needed to continue the run bit-identically."""
        return {
            "version": CHECKPOINT_VERSION,
            "epoch": state.epoch + 1,
            "model_class": type(state.model).__name__,
            "policy": compute_policy(state.model),
            "model": state.model.state_dict(),
            "optimizer": state.optimizer.state_dict(),
            "scheduler": state.scheduler.state_dict(),
            "rng_state": state.rng.bit_generator.state,
            "logger": state.logger.state_dict(),
            "config": dataclasses.asdict(state.config),
            "train_data": state.train_fingerprint,
            "test_data": state.test_fingerprint,
            "callbacks": [(type(callback).__name__, callback.checkpoint_key,
                           callback.state_dict())
                          for callback in state.callbacks],
            "stop_training": state.stop_training,
            "stop_reason": state.stop_reason,
        }

    @staticmethod
    def _restore(state: TrainerState,
                 payload: Dict[str, object]) -> int:
        version = payload.get("version")
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version!r}")
        expected = type(state.model).__name__
        found = payload.get("model_class")
        if found != expected:
            raise ValueError(f"checkpoint holds a {found}, cannot resume a "
                             f"{expected}")
        check_compute_policy(payload, state.model, "checkpoint")
        # The trajectory is only reproducible under the configuration that
        # produced the checkpoint; refuse silent divergence.  ``verbose`` is
        # cosmetic and ``eval_batch_size`` is trajectory-neutral (chunked
        # and unchunked evaluation agree), so both may differ.
        saved_config = dict(payload.get("config", {}))
        current_config = dataclasses.asdict(state.config)
        # ``dtype`` is a removed setting the trainer never applied, so a
        # saved value is dropped.  Older checkpoints predate the nan_policy
        # field, whose default is "stop" (trajectory-identical on finite
        # losses).
        saved_config.pop("dtype", None)
        saved_config.setdefault("nan_policy", "stop")
        for neutral in ("verbose", "eval_batch_size"):
            saved_config.pop(neutral, None)
            current_config.pop(neutral, None)
        if saved_config != current_config:
            changed = sorted(key for key in set(saved_config) | set(current_config)
                             if saved_config.get(key) != current_config.get(key))
            raise ValueError("checkpoint was written under a different "
                             f"training config (differs in: {changed})")
        saved_train = payload.get("train_data")
        if saved_train is not None and saved_train != state.train_fingerprint:
            raise ValueError(
                f"checkpoint was written against different training samples "
                f"({saved_train['seismic_shape'][0]} of them) — the restored "
                "shuffle state only reproduces the original run on the same "
                "dataset")
        state.model.load_state_dict(payload["model"])
        state.optimizer.load_state_dict(payload["optimizer"])
        state.scheduler.load_state_dict(payload["scheduler"])
        state.rng.bit_generator.state = payload["rng_state"]
        state.logger.load_state_dict(payload["logger"])
        # Stateful callbacks resume where they left off.  Each current
        # callback claims the first unclaimed saved entry matching its class
        # AND its checkpoint_key (robust to reordering, and two same-class
        # callbacks with different keys — e.g. different monitors — cannot
        # swap state); saved state nobody claims is reported so a
        # silently-reset patience counter cannot masquerade as an exact
        # resume.
        saved_callbacks = list(payload.get("callbacks", []))
        claimed = [False] * len(saved_callbacks)
        for callback in state.callbacks:
            identity = (type(callback).__name__, callback.checkpoint_key)
            for index, (saved_name, saved_key, saved_state) \
                    in enumerate(saved_callbacks):
                if not claimed[index] and identity == (saved_name, saved_key):
                    claimed[index] = True
                    callback.load_state_dict(saved_state)
                    break
        orphaned = sorted({saved_name
                           for index, (saved_name, saved_key, saved_state)
                           in enumerate(saved_callbacks)
                           if not claimed[index] and saved_state})
        if orphaned:
            warnings.warn(
                "checkpoint carries state for callbacks not present in this "
                f"run ({orphaned}); their behaviour restarts from scratch",
                stacklevel=2)
        # Rescoring a finished run against a different test split is
        # legitimate — but then the cached evaluation describes the old
        # split and must not be served as final_metrics.
        if payload.get("test_data") != state.test_fingerprint:
            for callback in state.callbacks:
                if isinstance(callback, EvalCallback):
                    callback.last_eval = None
        # The payload's stop_training/stop_reason fields are metadata only:
        # whether a restored run should stay stopped is the stopping
        # callback's call (EarlyStopping.on_resume re-asserts a fired stop),
        # so a checkpoint that merely interrupted a healthy run resumes.
        for callback in state.callbacks:
            callback.on_resume(state)
        return int(payload["epoch"])


class QuantumTrainer(Trainer):
    """Backwards-compatible alias: the unified :class:`Trainer` engine.

    Strategy selection (batched adjoint vs QuBatch) lives in
    :func:`select_step_strategy` rather than the epoch loop.
    """


class ClassicalTrainer(Trainer):
    """Backwards-compatible alias: the unified :class:`Trainer` engine."""
