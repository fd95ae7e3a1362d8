"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public entry points of each layer of the
``repro`` package -- methods on their class, functions where the calling
module looks them up -- and records calls, total time and self time (total
minus the time spent in wrapped callees).  Nothing inside ``src/`` changes:
the wrappers exist only between :meth:`Tracer.install` and
:meth:`Tracer.restore`, which puts the original objects back.

The traced job also switches the library's own telemetry on
(``QUGEO_TELEMETRY=summary`` semantics, through
:func:`repro.telemetry.configure`) and copies the propagator phase timers,
gradient spans and store LRU counters that already exist.
"""

from __future__ import annotations

import functools
import importlib
import os
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# Hook computing extra per-call quantities from (args, kwargs, result).
Extra = Callable[[tuple, dict, object], Dict[str, float]]


def _model_shots_batch_extra(args, kwargs, result) -> Dict[str, float]:
    model, velocities = args[0], args[1]
    shots = model.survey.n_sources * model.config.n_steps
    return {"cell_steps": float(velocities.size * shots)}


def _write_shard_extra(args, kwargs, result) -> Dict[str, float]:
    store = args[0]
    path = store.entry_dir(args[1]) / result["file"]
    return {"bytes": float(os.path.getsize(path))}


def _read_shard_extra(args, kwargs, result) -> Dict[str, float]:
    return {"bytes": float(sum(array.nbytes for array in result))}


def _loss_and_gradients_extra(args, kwargs, result) -> Dict[str, float]:
    return {"samples": float(len(args[1]))}


# metric prefix -> (module, class name or None for a module function,
# attribute, extra hook).  Functions imported by name into another module
# are patched where they are looked up.
WRAPPED: Dict[str, Tuple[str, Optional[str], str, Optional[Extra]]] = {
    "seismic.model_shots_batch": ("repro.seismic.forward_modeling",
                                  "ForwardModel", "model_shots_batch",
                                  _model_shots_batch_extra),
    "seismic.model_shots": ("repro.seismic.forward_modeling", "ForwardModel",
                            "model_shots", None),
    "data.build_chunk": ("repro.data.openfwi", "SyntheticOpenFWI",
                         "build_chunk", None),
    "store.write_shard": ("repro.data.store", "DatasetStore", "write_shard",
                          _write_shard_extra),
    "store.read_shard": ("repro.data.store", "DatasetStore", "read_shard",
                         _read_shard_extra),
    "store.verify_shard": ("repro.data.store", "DatasetStore", "verify_shard",
                           None),
    "scaling.scale_sample": ("repro.core.data_scaling", "BaseScaler",
                             "scale_sample", None),
    "quantum.loss_and_gradients_batch": ("repro.core.vqc_model", "QuGeoVQC",
                                         "loss_and_gradients_batch",
                                         _loss_and_gradients_extra),
    "quantum.predict": ("repro.core.vqc_model", "QuGeoVQC", "predict", None),
    "quantum.predict_batch": ("repro.core.vqc_model", "QuGeoVQC",
                              "predict_batch", None),
    "nn.adam_step": ("repro.nn.optim", "Adam", "step", None),
    "nn.cnn_compress": ("repro.core.classical_models", "CompressionCNN",
                        "compress", None),
    "training.train": ("repro.core.training", "Trainer", "train", None),
    "training.gather": ("repro.core.training", "ArrayDataSource", "gather",
                        None),
    "metrics.evaluate_predictions": ("repro.core.training", None,
                                     "evaluate_predictions", None),
    "serialization.load_checkpoint": ("repro.core.framework", None,
                                      "load_checkpoint", None),
    "framework.predict_dataset": ("repro.core.framework", "QuGeo",
                                  "predict_dataset", None),
}


class _Stat:
    __slots__ = ("calls", "total", "self_time", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.extra: Dict[str, float] = {}


def _owner(module_name: str, class_name: Optional[str]):
    module = importlib.import_module(module_name)
    return module if class_name is None else getattr(module, class_name)


class Tracer:
    """Wraps every entry point of :data:`WRAPPED` for one traced job."""

    def __init__(self) -> None:
        self.stats = {prefix: _Stat() for prefix in WRAPPED}
        # Time of wrapped callees, one slot per active wrapped frame.
        self._child_time: List[float] = []
        # Time covered by outermost wrapped calls (the attributed time).
        self.covered = 0.0
        self._originals: List[Tuple[object, str, object]] = []

    def _wrap(self, prefix: str, function, extra: Optional[Extra]):
        stat = self.stats[prefix]
        stack = self._child_time

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - children
                if stack:
                    stack[-1] += elapsed
                else:
                    self.covered += elapsed
            if extra is not None:
                for key, value in extra(args, kwargs, result).items():
                    stat.extra[key] = stat.extra.get(key, 0.0) + value
            return result

        wrapper.__perfbench_wrapper__ = True
        return wrapper

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for prefix, (module, cls, attribute, extra) in WRAPPED.items():
            owner = _owner(module, cls)
            original = owner.__dict__[attribute]
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(prefix, original, extra))

    def restore(self) -> None:
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()


def installed_wrappers() -> List[str]:
    """Prefixes whose entry point is currently a tracer wrapper."""
    found = []
    for prefix, (module, cls, attribute, _) in WRAPPED.items():
        current = _owner(module, cls).__dict__[attribute]
        if getattr(current, "__perfbench_wrapper__", False):
            found.append(prefix)
    return found


def _span_total(snapshot: Dict[str, object], name: str) -> float:
    """Total seconds of span ``name`` over every path it was recorded under."""
    return sum(stat["total"] for path, stat in snapshot["spans"].items()
               if path.split("/")[-1] == name)


def layer_metrics(tracer: Tracer, snapshot: Dict[str, object],
                  wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced job."""
    out: Dict[str, float] = {}
    for prefix, stat in tracer.stats.items():
        out[f"{prefix}.calls"] = float(stat.calls)
        out[f"{prefix}.self_s"] = stat.self_time
    write = tracer.stats["store.write_shard"].extra
    read = tracer.stats["store.read_shard"].extra
    out["store.write_shard.bytes"] = write.get("bytes", 0.0)
    out["store.read_shard.bytes"] = read.get("bytes", 0.0)
    grads = tracer.stats["quantum.loss_and_gradients_batch"]
    out["quantum.loss_and_gradients_batch.samples_per_call"] = (
        grads.extra.get("samples", 0.0) / grads.calls if grads.calls else 0.0)
    shots = tracer.stats["seismic.model_shots_batch"]
    out["seismic.cell_steps_per_s"] = (
        shots.extra.get("cell_steps", 0.0) / shots.self_time
        if shots.self_time > 0 else 0.0)

    timers = snapshot["timers"]
    for phase in ("laplacian", "update", "boundary"):
        out[f"seismic.{phase}_s"] = float(
            timers.get(f"propagator.{phase}", {}).get("total", 0.0))
    counters = snapshot["counters"]
    hits = counters.get("store.lru.hits", 0)
    lookups = hits + counters.get("store.lru.misses", 0)
    out["store.lru_hit_ratio"] = hits / lookups if lookups else 0.0
    out["quantum.gradients.forward_s"] = _span_total(snapshot,
                                                     "gradients.forward")
    out["quantum.gradients.backward_s"] = _span_total(snapshot,
                                                      "gradients.backward")
    # Backends without a batched adjoint record one span per sample sweep.
    out["quantum.gradients.per_sample_s"] = _span_total(
        snapshot, "gradients.per_sample")
    out["unattributed_fraction"] = (max(0.0, 1.0 - tracer.covered / wall_s)
                                    if wall_s > 0 else 0.0)
    return out
