"""The training engine.

One :class:`Trainer` trains every model family in the stack with the paper's
recipe: mini-batch Adam at a configurable initial learning rate (0.1 in the
paper) with cosine annealing over the epoch budget.  The engine owns the
epoch loop, the mini-batch shuffle, the optimiser and scheduler, metric
logging, test-set evaluation on the ``TrainingConfig.eval_every`` cadence
and checkpoint resume.  The model kind alone decides how one mini-batch
becomes accumulated gradients (:func:`select_step_strategy`):

* ``quantum-batched-adjoint`` — :class:`~repro.core.vqc_model.QuGeoVQC` on
  either engine: one reversible forward/backward sweep per mini-batch;
* ``qubatch`` — :class:`~repro.core.qubatch.QuBatchVQC`, whose mini-batch
  size is the circuit's own batch capacity;
* ``classical-autograd`` — :class:`~repro.core.classical_models.ClassicalFWIModel`
  through the reverse-mode autograd of :mod:`repro.nn`.

Models plug in through the :class:`Model` protocol (``parameter_tensors`` /
``predict_batch`` / ``state_dict`` / ``load_state_dict``) and datasets
through the :class:`DataSource` protocol.  :class:`Callback` hooks see the
epoch loop; :class:`Checkpoint` saves the full training state — model
arrays, optimiser moments, scheduler position, the shuffle generator's
bit-generator state and the metric history — so a run resumed with
``Trainer.train(..., resume_from=path)`` reproduces the uninterrupted run's
trajectory exactly.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import warnings
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from typing import (
    Callable,
    Dict,
    List,
    NamedTuple,
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
    """The precision recorded for ``model`` in checkpoints and pipeline
    files: ``"float64"``, the one precision every simulation backend
    computes in, or ``None`` for a model without a backend."""
    return None if getattr(model, "backend", None) is None else "float64"


def check_compute_policy(payload: Dict[str, object], model,
                         source: str) -> None:
    """Refuse a ``payload`` recorded under another precision than ``model``
    computes in, such as a file written by a reduced-precision engine:
    resuming or serving it would silently change precision.  Files written
    before the precision was recorded carry no key and load as before."""
    current = compute_policy(model)
    saved = payload.get("policy", current)
    if saved != current:
        raise ValueError(
            f"{source} was computed under the {saved!r} dtype policy, but "
            f"this model computes under {current!r}; only float64 files "
            f"can be resumed or served, so retrain it")


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


def _chunk_indices(n_samples: int,
                   batch_size: Optional[int]) -> List[np.ndarray]:
    """The sample indices of each ``batch_size`` chunk (one chunk for
    ``None``); an empty set is an error."""
    if n_samples == 0:
        raise ValueError("empty evaluation set")
    limit = n_samples if batch_size is None else max(1, int(batch_size))
    return [np.arange(start, min(start + limit, n_samples))
            for start in range(0, n_samples, limit)]


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
    stacked = not hasattr(seismic, "gather")
    if stacked:
        seismic = np.asarray(seismic)
    chunks = [model.predict_batch(seismic[index] if stacked
                                  else seismic.gather(index)[0])
              for index in _chunk_indices(len(seismic), batch_size)]
    if len(chunks) == 1:
        return np.asarray(chunks[0])
    return np.concatenate(chunks, axis=0)


def evaluate_data_source(model: Model, source, split: str = "test",
                         batch_size: Optional[int] = None) -> Dict[str, float]:
    """Split-prefixed SSIM / MSE of ``model`` over a data source.

    Seismic data streams through ``source.gather`` in ``batch_size`` chunks;
    only the (small) velocity maps and predictions are held in full.  A
    dataset without ``gather`` is stacked into an :class:`ArrayDataSource`.
    """
    source = _as_data_source(source)
    predictions, targets = [], []
    with get_telemetry().span("eval"):
        for index in _chunk_indices(len(source), batch_size):
            seismic, velocity = source.gather(index)
            predictions.append(model.predict_batch(seismic))
            targets.append(velocity)
        metrics = evaluate_predictions(np.concatenate(predictions, axis=0),
                                       np.concatenate(targets, axis=0))
    return {f"{split}_ssim": metrics["ssim"],
            f"{split}_mse": metrics["mse"]}


# --------------------------------------------------------------------------- #
# the gradient step of each model kind
# --------------------------------------------------------------------------- #
class TrainStep(NamedTuple):
    """How one model kind turns a mini-batch into accumulated gradients.

    The trainer calls ``optimizer.zero_grad()`` before and
    ``optimizer.step()`` after ``accumulate(seismic, velocity)``, which adds
    the mini-batch gradients into the model's parameter tensors and returns
    the mini-batch loss.
    """

    name: str
    accumulate: Callable[[np.ndarray, np.ndarray], float]
    #: Mini-batch size; ``None`` trains at ``TrainingConfig.batch_size``.
    batch_size: Optional[int] = None


_MSE = MSELoss()


def _autograd_step(model: ClassicalFWIModel, seismic: np.ndarray,
                   velocity: np.ndarray) -> float:
    """Reverse-mode autograd through the :mod:`repro.nn` graph."""
    output = model.forward(seismic)
    if model.decoder == "pixel":
        prediction = output.reshape(*velocity.shape)
    else:
        prediction = model.expand_prediction(output)
    loss = _MSE(prediction, velocity)
    value = loss.item()
    # A non-finite loss halts the trainer before its update: skip the
    # backward pass, which would only propagate inf/NaN.
    if np.isfinite(value):
        loss.backward()
    return value


def select_step_strategy(model: Model) -> TrainStep:
    """The gradient step of ``model``'s kind, bound to ``model``."""
    if isinstance(model, QuBatchVQC):
        # QuBatch SIMD execution: the circuit itself carries the mini-batch.
        return TrainStep("qubatch", model.accumulate_gradients,
                         model.batch_capacity)
    if isinstance(model, ClassicalFWIModel):
        return TrainStep("classical-autograd", partial(_autograd_step, model))
    if hasattr(model, "accumulate_gradients_batch"):
        # One stacked forward/backward sweep per mini-batch (QuGeoVQC).
        return TrainStep("quantum-batched-adjoint",
                         model.accumulate_gradients_batch)
    raise TypeError(
        f"no step strategy for {type(model).__name__}: the model matches no "
        "known family and has no accumulate_gradients_batch method")


# --------------------------------------------------------------------------- #
# callbacks
# --------------------------------------------------------------------------- #
@dataclass
class TrainerState:
    """Mutable context the engine shares with its callbacks."""

    trainer: "Trainer"
    config: TrainingConfig
    model: Model
    optimizer: Adam
    scheduler: CosineAnnealingLR
    rng: np.random.Generator
    logger: RunLogger
    #: Data sources (``ArrayDataSource`` or a streaming ShardLoader).
    train_source: object = None
    test_source: Optional[object] = None
    #: Dataset fingerprints, computed once per run (the arrays are immutable
    #: for the whole train() call) and embedded in every checkpoint.
    train_fingerprint: Optional[Dict[str, object]] = None
    test_fingerprint: Optional[Dict[str, object]] = None
    epoch: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    stop_training: bool = False
    stop_reason: str = ""


class Callback:
    """Hooks into the engine's epoch loop.

    ``on_train_begin`` runs once per :meth:`Trainer.train` call, before any
    checkpoint is restored, so one instance can be reused across runs.
    ``on_epoch_end`` runs after the epoch's updates and its test-set
    evaluation but *before* the metrics are logged, so callbacks can
    contribute metrics.  ``on_epoch_logged`` runs after logging, so
    callbacks that persist or act on the recorded state (checkpoints, a
    ``state.stop_training`` request) see a history that includes the
    current epoch.  Callbacks run in the order they are listed.
    """

    def on_train_begin(self, state: TrainerState) -> None:
        pass

    def on_epoch_end(self, state: TrainerState) -> None:
        pass

    def on_epoch_logged(self, state: TrainerState) -> None:
        pass


class TelemetryCallback(Callback):
    """Feed per-epoch timing from the telemetry registry into the metric log.

    Added automatically by :meth:`Trainer.train` whenever telemetry is
    recording (``QUGEO_TELEMETRY=summary``/``trace``), after every other
    callback; the epoch's test-set evaluation runs before any callback, so
    the span totals it differences already include it.  Contributed metrics:

    * ``epoch_seconds`` — wall time since the previous epoch's hook (the
      first epoch measures from ``on_train_begin``), so it includes the
      post-logging hooks of the *previous* epoch (checkpoint saves, ...);
    * ``step_seconds`` / ``eval_seconds`` — per-epoch deltas of the matching
      telemetry span totals (summed over every path ending in that leaf).

    Checkpoints hold none of its state: a resumed run simply restarts its
    deltas from the resume point, and runs recorded with telemetry off
    resume cleanly with it on (and vice versa).
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


class Checkpoint(Callback):
    """Persist the full training state every ``every`` epochs.

    The file at ``path`` is overwritten with the latest state, captured
    *after* the epoch's metrics are logged, so
    ``Trainer.train(..., resume_from=path)`` picks the run up at the next
    epoch with an intact metric history, optimiser state and
    shuffle-generator state.
    """

    def __init__(self, path: str, every: int = 1) -> None:
        if every < 1:
            raise ValueError("every must be at least 1")
        self.path = path
        self.every = int(every)

    def on_epoch_logged(self, state: TrainerState) -> None:
        if (state.epoch + 1) % self.every:
            return
        # Rotate the previous checkpoint to ``.bak`` before overwriting, so
        # a corrupted primary (torn copy, flipped bits after the atomic
        # write) still leaves a last-good snapshot for resume_from to fall
        # back to.
        if os.path.exists(self.path):
            os.replace(self.path, str(self.path) + BACKUP_SUFFIX)
        save_checkpoint(self.path, state.trainer.capture_state(state))


# --------------------------------------------------------------------------- #
# the engine
# --------------------------------------------------------------------------- #
class Trainer:
    """Mini-batch Adam training of any :class:`Model` in the stack.

    Parameters
    ----------
    config:
        Optimiser and evaluation settings shared by every model family.
    """

    def __init__(self, config: TrainingConfig = None) -> None:
        self.config = config or TrainingConfig()

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
            Scaled datasets (or :class:`DataSource` objects); the test split
            is evaluated every ``eval_every`` epochs, at the final epoch and
            for ``final_metrics``.
        logger:
            Metric sink; a fresh :class:`~repro.utils.logging.RunLogger` by
            default.
        callbacks:
            Extra :class:`Callback` hooks, run in the order given.
        resume_from:
            Path to (or payload of) a checkpoint written by
            :class:`Checkpoint` / :meth:`capture_state`.  Restores model,
            optimiser, scheduler, RNG and metric history, then continues
            from the next epoch — the resumed trajectory matches the
            uninterrupted one exactly.  Checkpoints are pickle files: only
            resume from files you trust.
        """
        config = self.config
        step = select_step_strategy(model)
        rng = ensure_rng(config.seed)
        logger = logger or RunLogger(name=getattr(model, "name", step.name),
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
        telemetry = get_telemetry()
        if telemetry.enabled and not any(isinstance(cb, TelemetryCallback)
                                         for cb in callbacks):
            callbacks.append(TelemetryCallback())

        state = TrainerState(
            trainer=self, config=config, model=model, optimizer=optimizer,
            scheduler=scheduler, rng=rng, logger=logger,
            train_source=train_source, test_source=test_source,
            train_fingerprint=train_source.fingerprint(),
            test_fingerprint=(None if test_source is None
                              else test_source.fingerprint()))

        for callback in callbacks:
            callback.on_train_begin(state)

        start_epoch = 0
        if resume_from is not None:
            payload = self._resolve_resume(resume_from, telemetry)
            if payload is not None:
                start_epoch = self._restore(state, payload)

        n_samples = len(train_source)
        batch_size = step.batch_size or config.batch_size
        # The test-split metrics of the last epoch run, when that epoch was
        # evaluated: final_metrics reuses them instead of a second pass.
        test_metrics: Optional[Dict[str, float]] = None
        for epoch in range(start_epoch, config.epochs):
            state.epoch = epoch
            # Capture before the scheduler advances so the log records the
            # LR the optimiser actually used for this epoch's updates.
            epoch_lr = optimizer.lr
            order = rng.permutation(n_samples)
            epoch_loss = 0.0
            n_batches = 0
            nan_batch_loss: Optional[float] = None
            test_metrics = None
            with telemetry.span("trainer.epoch"):
                for start in range(0, n_samples, batch_size):
                    with telemetry.span("step"):
                        batch_seismic, batch_velocity = train_source.gather(
                            order[start:start + batch_size])
                        optimizer.zero_grad()
                        batch_loss = step.accumulate(batch_seismic,
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
                if test_source is not None and (
                        (epoch + 1) % config.eval_every == 0
                        or epoch == config.epochs - 1):
                    test_metrics = evaluate_data_source(
                        model, test_source,
                        batch_size=config.eval_batch_size)
                    state.metrics.update(test_metrics)
                for callback in callbacks:
                    callback.on_epoch_end(state)
            logger.log(epoch, **state.metrics)
            for callback in callbacks:
                callback.on_epoch_logged(state)
            if state.stop_training:
                if config.verbose and state.stop_reason:
                    print(f"[{logger.name}] stopping at epoch {epoch}: "
                          f"{state.stop_reason}", file=sys.stderr)
                break

        if test_source is None:
            final_metrics = evaluate_data_source(
                model, train_source, split="train",
                batch_size=config.eval_batch_size)
        elif test_metrics is None:
            final_metrics = evaluate_data_source(
                model, test_source, batch_size=config.eval_batch_size)
        else:
            final_metrics = dict(test_metrics)
        return TrainingResult(model=model, logger=logger,
                              final_metrics=final_metrics)

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
        # Entries that files from older releases carry are ignored:
        # "callbacks" (no callback restores state) and "stop_training" /
        # "stop_reason" (a restored run always continues to its epoch
        # budget).
        return int(payload["epoch"])
