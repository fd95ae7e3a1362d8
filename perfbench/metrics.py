"""Metric catalogue of the QuGeo pipeline benchmark.

One table for both kinds of metric the benchmark prints:

* ``END_TO_END`` -- what a user of the pipeline sees, measured with tracing
  off.  Every workload reports every one of them.  Job times are scaled by
  the host speed measured between jobs (see ``calibration.py``); the raw
  ``wall_s`` and ``samples_per_s`` are per-layer figures beside the
  ``calibration_slice_s`` they were scaled by.
* ``PER_LAYER`` -- the traced run's attribution: calls and self time per
  wrapped entry point, the counters and timers the library already keeps,
  and the stage throughputs and quality figures.  Every workload reports
  every one of them; a layer a workload leaves idle reads 0.

Each per-layer row names the end-to-end metric it should move and the
workloads it is exercised on, so a later change can say in advance which
numbers it expects to move.  ``BENCHMARK.json`` at the repository root
lists the same names, units and directions; the self-test checks that the
two agree.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

WORKLOADS = ("fit_paper", "flatvel_store", "serve_cnn")


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str = ""
    on: Tuple[str, ...] = WORKLOADS


END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower"),
    Metric("scaled_wall_s", "s", "lower"),
    Metric("scaled_samples_per_s", "1/s", "higher"),
    Metric("peak_rss_mb", "MiB", "lower"),
]

# Wrapped public entry points: (metric prefix, the end-to-end or stage
# metric its time should move, workloads it runs on).  The wrapper table
# itself (which callable each prefix wraps) lives in ``tracing.py``.
ENTRY_POINTS: List[Tuple[str, str, Tuple[str, ...]]] = [
    ("seismic.model_shots_batch", "datagen_samples_per_s",
     ("flatvel_store", "fit_paper")),
    ("seismic.model_shots", "scale_samples_per_s",
     ("fit_paper", "flatvel_store")),
    ("data.build_chunk", "datagen_samples_per_s",
     ("flatvel_store", "fit_paper")),
    ("store.write_shard", "scaled_wall_s", ("flatvel_store",)),
    ("store.read_shard", "load_samples_per_s", ("flatvel_store",)),
    ("store.verify_shard", "load_samples_per_s", ("flatvel_store",)),
    ("scaling.scale_sample", "scale_samples_per_s", WORKLOADS),
    ("quantum.loss_and_gradients_batch", "fit_samples_per_s", ("fit_paper",)),
    ("quantum.predict", "predict_samples_per_s", ("serve_cnn", "fit_paper")),
    ("quantum.predict_batch", "predict_samples_per_s",
     ("serve_cnn", "fit_paper")),
    ("nn.adam_step", "fit_samples_per_s", ("fit_paper",)),
    ("nn.cnn_compress", "predict_samples_per_s", ("serve_cnn",)),
    ("training.train", "fit_samples_per_s", ("fit_paper",)),
    ("training.gather", "fit_samples_per_s", ("fit_paper",)),
    ("metrics.evaluate_predictions", "scaled_wall_s", ("fit_paper",)),
    ("serialization.load_checkpoint", "scaled_wall_s", ("serve_cnn",)),
    ("framework.predict_dataset", "predict_samples_per_s",
     ("serve_cnn", "fit_paper")),
]

# Stage throughputs: samples through one stage of a job per second of that
# stage, timed by the benchmark between public calls.
STAGES = ("datagen", "scale", "fit", "load", "predict")

PER_LAYER: List[Metric] = []
for _prefix, _moves, _on in ENTRY_POINTS:
    PER_LAYER.append(Metric(f"{_prefix}.calls", "count", "lower", _moves, _on))
    PER_LAYER.append(Metric(f"{_prefix}.self_s", "s", "lower", _moves, _on))
PER_LAYER += [
    Metric("store.write_shard.bytes", "B", "lower", "scaled_wall_s",
           ("flatvel_store",)),
    Metric("store.read_shard.bytes", "B", "lower", "load_samples_per_s",
           ("flatvel_store",)),
    Metric("quantum.loss_and_gradients_batch.samples_per_call", "count",
           "higher", "fit_samples_per_s", ("fit_paper",)),
    Metric("seismic.cell_steps_per_s", "1/s", "higher",
           "datagen_samples_per_s", ("flatvel_store", "fit_paper")),
    Metric("seismic.laplacian_s", "s", "lower", "datagen_samples_per_s",
           ("flatvel_store", "fit_paper")),
    Metric("seismic.update_s", "s", "lower", "datagen_samples_per_s",
           ("fit_paper", "flatvel_store")),
    Metric("seismic.boundary_s", "s", "lower", "datagen_samples_per_s",
           ("flatvel_store", "fit_paper")),
    Metric("store.lru_hit_ratio", "ratio", "higher", "load_samples_per_s",
           ("flatvel_store",)),
    Metric("quantum.gradients.forward_s", "s", "lower", "fit_samples_per_s",
           ("fit_paper",)),
    Metric("quantum.gradients.backward_s", "s", "lower", "fit_samples_per_s",
           ("fit_paper",)),
    Metric("quantum.gradients.per_sample_s", "s", "lower",
           "fit_samples_per_s", ("fit_paper",)),
    Metric("import.repro_core_s", "s", "lower", "setup_s"),
    Metric("import.scipy_ndimage_s", "s", "lower", "setup_s"),
    Metric("unattributed_fraction", "fraction", "lower"),
    Metric("trace_overhead_fraction", "fraction", "lower"),
    Metric("wall_s", "s", "lower", "scaled_wall_s"),
    Metric("samples_per_s", "1/s", "higher", "scaled_samples_per_s"),
    Metric("calibration_slice_s", "s", "lower"),
    Metric("fit_samples_per_s", "1/s", "higher", "scaled_wall_s",
           ("fit_paper",)),
    Metric("datagen_samples_per_s", "1/s", "higher", "scaled_wall_s",
           ("fit_paper", "flatvel_store")),
    Metric("scale_samples_per_s", "1/s", "higher", "scaled_wall_s",
           ("fit_paper", "flatvel_store")),
    Metric("load_samples_per_s", "1/s", "higher", "scaled_wall_s",
           ("flatvel_store",)),
    Metric("predict_samples_per_s", "1/s", "higher", "scaled_wall_s",
           ("serve_cnn", "fit_paper")),
    Metric("test_ssim", "1", "higher", "", ("fit_paper", "serve_cnn")),
    Metric("test_mse", "1", "lower", "", ("fit_paper", "serve_cnn")),
    Metric("failed_fraction", "fraction", "lower"),
]

