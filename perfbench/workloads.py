"""The three workloads of the QuGeo pipeline benchmark.

Each workload is a batch job run by one client in a closed loop: the next
job starts when the previous one has finished.  A job drives the pipeline
through its public API in the default configuration -- no backend,
propagator, kernel, boundary or dtype is pinned -- on inputs generated from
the run's seed, then checks its outputs (see ``checks.py``).  Work done
before a job's clock starts (the ``serve_cnn`` fixture, loading requests)
is not timed.

``SIZES`` holds the paper-shaped ``full`` sizes the benchmark measures and
``tiny`` sizes for the self-test's smoke runs.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

import numpy as np

from checks import (
    Gate,
    check_gathers,
    check_golden,
    check_identical,
    check_maps,
)
from repro.core import Callback, QuGeo, QuGeoConfig, TrainingConfig
from repro.core.config import QuGeoDataConfig
from repro.core.data_scaling import ForwardModelingScaler
from repro.data import (
    FWIDataset,
    FWISample,
    OpenFWIConfig,
    build_flatvel_dataset,
    open_or_build,
    train_test_split,
)
from repro.metrics import mse, ssim

SIZES: Dict[str, Dict[str, Dict[str, object]]] = {
    # Paper circuit (8 qubits, 12 blocks, 576 parameters, Q-M-LY, Q-D-FW)
    # trained at batch 16 on reduced FlatVelA data.
    "fit_paper": {
        "full": dict(samples=24, train=16, epochs=6, shape=(32, 32),
                     steps=300, shots=4),
        "tiny": dict(samples=6, train=4, epochs=1, shape=(16, 16),
                     steps=64, shots=4),
    },
    # FlatVelA geometry: 70x70 maps, 1000 steps, 5 shots, 70 receivers.
    "flatvel_store": {
        "full": dict(samples=6, shape=(70, 70), steps=1000, shots=5,
                     receivers=70),
        "tiny": dict(samples=3, shape=(24, 24), steps=120, shots=3,
                     receivers=24),
    },
    # A Q-D-CNN pipeline fitted on small data serves full-resolution
    # requests it has not seen.
    "serve_cnn": {
        "full": dict(requests=64, compressor=16, train=16, test=8,
                     epochs=2, cnn_epochs=8, shape=(32, 32), steps=300,
                     shots=4),
        "tiny": dict(requests=6, compressor=4, train=4, test=2, epochs=1,
                     cnn_epochs=1, shape=(16, 16), steps=64, shots=4),
    },
}

BATCH_SIZE = 16
VELOCITY_RANGE = QuGeoDataConfig().velocity_range


@dataclass
class JobOutput:
    """What one job did and produced.

    ``stages`` maps a stage name to ``(samples, seconds)``; ``outputs`` are
    the arrays every later job of the run must reproduce bit for bit.
    """

    wall_s: float
    samples: int
    stages: Dict[str, Tuple[int, float]]
    quality: Dict[str, float] = field(default_factory=dict)
    outputs: List[np.ndarray] = field(default_factory=list)
    golden: Dict[str, float] = field(default_factory=dict)


class _TrainClock(Callback):
    """Notes when ``Trainer.train`` starts, splitting ``fit`` into stages."""

    def __init__(self) -> None:
        self.begin = 0.0

    def on_train_begin(self, state) -> None:
        self.begin = perf_counter()


class Workload:
    """One workload at one size for one seed."""

    name = ""

    def __init__(self, size: str, seed: int, tmp: Path,
                 fault: bool = False) -> None:
        self.size = size
        self.p = SIZES[self.name][size]
        self.seed = int(seed)
        self.tmp = Path(tmp)
        # Corrupt one output before the checks (self-test of the gate).
        self.fault = fault

    def build_fixture(self) -> None:
        """Prepare inputs in a separate process, before any timed job."""

    def prepare(self) -> None:
        """Load the fixture in the timed process, before the clock starts."""

    def run(self, gate: Gate) -> JobOutput:
        raise NotImplementedError


class FitPaper(Workload):
    """datagen -> ``QuGeo.fit`` (Q-D-FW scaling + training) -> predict."""

    name = "fit_paper"

    def run(self, gate: Gate) -> JobOutput:
        p = self.p
        clock = _TrainClock()
        start = perf_counter()
        dataset = build_flatvel_dataset(
            n_samples=p["samples"], velocity_shape=p["shape"],
            n_time_steps=p["steps"], n_sources=p["shots"], rng=self.seed)
        generated = perf_counter()
        train, test = train_test_split(dataset, p["train"], rng=self.seed)
        config = QuGeoConfig(training=TrainingConfig(
            epochs=p["epochs"], batch_size=BATCH_SIZE, seed=self.seed))
        pipeline = QuGeo(config, rng=self.seed)
        fit_start = perf_counter()
        result = pipeline.fit(train, test, callbacks=[clock])
        fitted = perf_counter()
        predictions = pipeline.predict_dataset(test)
        end = perf_counter()

        if self.fault:
            predictions[0, 0, 0] = np.nan
        check_gathers(gate, (s.seismic for s in dataset), "fit_paper gather")
        check_maps(gate, (s.velocity for s in dataset), *VELOCITY_RANGE,
                   "fit_paper velocity")
        check_maps(gate, predictions, *VELOCITY_RANGE, "fit_paper prediction")
        quality = {key: float(result.final_metrics[key])
                   for key in ("test_ssim", "test_mse")}
        gate.check(all(np.isfinite(list(quality.values()))),
                   f"fit_paper final metrics not finite: {quality}")
        golden = dict(quality, prediction_sum=float(predictions.sum()))
        check_golden(gate, self.name, self.size, self.seed, golden)
        n_test = len(test)
        return JobOutput(
            wall_s=end - start,
            samples=len(dataset),
            stages={"datagen": (len(dataset), generated - start),
                    "scale": (len(dataset), clock.begin - fit_start),
                    "fit": (len(train) * p["epochs"], fitted - clock.begin),
                    "predict": (n_test, end - fitted)},
            quality=quality,
            outputs=[predictions, np.array(list(quality.values()))],
            golden=golden)


class FlatvelStore(Workload):
    """Cold build into a fresh store -> warm re-open -> Q-D-FW scaling."""

    name = "flatvel_store"

    def run(self, gate: Gate) -> JobOutput:
        p = self.p
        config = OpenFWIConfig(
            n_samples=p["samples"], velocity_shape=p["shape"],
            n_sources=p["shots"], n_receivers=p["receivers"],
            n_time_steps=p["steps"])
        store = tempfile.mkdtemp(prefix="store-", dir=str(self.tmp))
        try:
            start = perf_counter()
            cold = open_or_build(config, seed=self.seed, cache_dir=store)
            built = perf_counter()
            warm = open_or_build(config, seed=self.seed, cache_dir=store)
            loaded = perf_counter()
            scaled = ForwardModelingScaler(QuGeoDataConfig()).scale_dataset(
                warm)
            end = perf_counter()
        finally:
            shutil.rmtree(store, ignore_errors=True)

        warm_seismic = [s.seismic for s in warm]
        if self.fault:
            warm_seismic[0] = warm_seismic[0].copy()
            warm_seismic[0].flat[0] = np.nextafter(warm_seismic[0].flat[0],
                                                   np.inf)
        check_identical(gate, warm_seismic, (s.seismic for s in cold),
                        "flatvel_store warm seismic")
        check_identical(gate, (s.velocity for s in warm),
                        (s.velocity for s in cold),
                        "flatvel_store warm velocity")
        check_gathers(gate, warm_seismic, "flatvel_store gather")
        check_maps(gate, (s.velocity for s in warm), *VELOCITY_RANGE,
                   "flatvel_store velocity")
        check_maps(gate, (s.velocity for s in scaled), 0.0, 1.0,
                   "flatvel_store scaled velocity")
        scaled_seismic = np.stack([s.seismic for s in scaled])
        gate.check(bool(np.all(np.isfinite(scaled_seismic))),
                   "flatvel_store scaled seismic not finite")
        golden = {"seismic_sum": float(sum(float(s.sum()) for s in warm_seismic)),
                  "scaled_sum": float(scaled_seismic.sum())}
        check_golden(gate, self.name, self.size, self.seed, golden)
        n = len(warm)
        return JobOutput(
            wall_s=end - start,
            samples=n,
            stages={"datagen": (n, built - start),
                    "load": (n, loaded - built),
                    "scale": (n, end - loaded)},
            outputs=[np.stack(warm_seismic), scaled_seismic],
            golden=golden)


class ServeCnn(Workload):
    """``QuGeo.load`` of a saved Q-D-CNN pipeline -> ``predict_dataset``."""

    name = "serve_cnn"

    @property
    def _pipeline_path(self) -> Path:
        return self.tmp / "serve_cnn_pipeline.pkl"

    @property
    def _requests_path(self) -> Path:
        return self.tmp / "serve_cnn_requests.npz"

    def build_fixture(self) -> None:
        p = self.p
        fit_samples = p["compressor"] + p["train"] + p["test"]
        dataset = build_flatvel_dataset(
            n_samples=fit_samples + p["requests"], velocity_shape=p["shape"],
            n_time_steps=p["steps"], n_sources=p["shots"], rng=self.seed)
        samples = list(dataset)
        cut = [p["compressor"], p["compressor"] + p["train"], fit_samples]
        compressor = FWIDataset(samples[:cut[0]])
        train = FWIDataset(samples[cut[0]:cut[1]])
        test = FWIDataset(samples[cut[1]:cut[2]])
        requests = FWIDataset(samples[cut[2]:])
        config = QuGeoConfig(scaling_method="cnn", training=TrainingConfig(
            epochs=p["epochs"], batch_size=BATCH_SIZE, seed=self.seed))
        pipeline = QuGeo(config, rng=self.seed)
        pipeline.build_scaler(compressor, compressor_epochs=p["cnn_epochs"])
        pipeline.fit(train, test)
        pipeline.save(str(self._pipeline_path))
        np.savez(self._requests_path,
                 seismic=requests.seismic_array(),
                 velocity=requests.velocity_array(),
                 expected=pipeline.predict_dataset(requests),
                 metadata=json.dumps(samples[0].metadata))

    def prepare(self) -> None:
        with np.load(self._requests_path) as data:
            metadata = json.loads(str(data["metadata"]))
            self.requests = FWIDataset([
                FWISample(seismic=seismic, velocity=velocity,
                          metadata=dict(metadata))
                for seismic, velocity in zip(data["seismic"],
                                             data["velocity"])])
            self.expected = data["expected"]

    def run(self, gate: Gate) -> JobOutput:
        start = perf_counter()
        pipeline = QuGeo.load(str(self._pipeline_path))
        loaded = perf_counter()
        predictions = pipeline.predict_dataset(self.requests)
        end = perf_counter()

        if self.fault:
            predictions[-1, -1, -1] = VELOCITY_RANGE[1] * 2.0
        check_maps(gate, predictions, *VELOCITY_RANGE, "serve_cnn prediction")
        check_identical(gate, predictions, self.expected,
                        "serve_cnn prediction vs fixture")
        truth = np.stack([pipeline.scaler.scale_velocity(
            s.velocity, method=pipeline.scaler.velocity_method)
            for s in self.requests])
        normalized = pipeline.normalizer.normalize(predictions)
        quality = {"test_ssim": float(np.mean(ssim(normalized, truth,
                                                   data_range=1.0))),
                   "test_mse": float(mse(normalized, truth))}
        golden = dict(quality, prediction_sum=float(predictions.sum()))
        check_golden(gate, self.name, self.size, self.seed, golden)
        n = len(self.requests)
        return JobOutput(
            wall_s=end - start,
            samples=n,
            stages={"predict": (n, end - loaded)},
            quality=quality,
            outputs=[predictions],
            golden=golden)


WORKLOAD_CLASSES = {cls.name: cls for cls in (FitPaper, FlatvelStore,
                                               ServeCnn)}
