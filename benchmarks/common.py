"""Shared context for the benchmark harness.

Every benchmark reproduces one table or figure of the paper.  They all share
the same synthetic FlatVelA-style dataset, the same three QuGeoData scalings
and (where possible) the same trained models, which this module builds once
and caches.

The scale of the reproduction is controlled with the ``QUGEO_BENCH_SCALE``
environment variable:

* ``small`` (default) — a laptop/CI-sized run: tens of samples, tens of
  epochs.  Qualitative orderings (physics-guided scaling beats naive
  resampling, the layer-wise decoder beats the pixel-wise decoder, quantum
  matches classical at equal parameter count) are preserved; absolute SSIM
  values sit below the paper's because the paper trains 500 epochs on 400
  samples of the full-resolution OpenFWI data.
* ``medium`` — a few hundred epochs on ~100 samples (Figure 5 took ~90 s
  on a 2-core host with a cold dataset store).
* ``full`` — the paper's 400/100 split and 500 epochs (Figure 5 took
  ~20 min on a 2-core host with a cold dataset store).

Results are printed and also written to ``benchmarks/results/*.txt`` (human
readable) and ``benchmarks/results/*.json`` (machine readable, one payload
per benchmark via :func:`write_json`) so the rows survive pytest's output
capturing and CI can track the perf trajectory across commits.  Scripts with
their own CLI expose the shared ``--json [PATH]`` flag through
:func:`add_json_argument` and pass ``args.json`` to :func:`write_json`.

Dataset generation is served from the sharded on-disk store
(:mod:`repro.data.store`) when a cache directory is configured: CLI scripts
expose ``--cache-dir`` through :func:`add_cache_dir_argument` (applied with
:func:`apply_cache_dir`), and the pytest-benchmark figure/table runs honour
the same ``QUGEO_CACHE_DIR`` environment variable directly.  A second run
with an unchanged configuration then performs zero forward-modelling calls.
``QUGEO_DATAGEN_WORKERS`` fans a cold build across a process pool
(bit-identical to serial generation).
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import lru_cache
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.core import (
    ClassicalTrainer,
    CNNScaler,
    DSampleScaler,
    ForwardModelingScaler,
    QuantumTrainer,
    QuBatchVQC,
    QuGeoVQC,
    build_cnn_ly,
    build_cnn_px,
)
from repro.core.config import QuGeoDataConfig, QuGeoVQCConfig, TrainingConfig
from repro.core.training import TrainingResult
from repro.data import build_flatvel_dataset, train_test_split
from repro.utils import env

RESULTS_DIR = Path(__file__).parent / "results"

SCALING_METHODS = ("D-Sample", "Q-D-FW", "Q-D-CNN")


@dataclass(frozen=True)
class BenchScale:
    """Workload sizes for one benchmark scale tier."""

    name: str
    n_samples: int
    n_train: int
    velocity_shape: Tuple[int, int]
    n_time_steps: int
    n_sources: int
    epochs: int
    classical_epochs: int
    compressor_epochs: int
    n_blocks: int
    batch_size: int


_SCALES = {
    "small": BenchScale(name="small", n_samples=36, n_train=28,
                        velocity_shape=(32, 32), n_time_steps=300, n_sources=4,
                        epochs=50, classical_epochs=120, compressor_epochs=30,
                        n_blocks=12, batch_size=8),
    "medium": BenchScale(name="medium", n_samples=120, n_train=100,
                         velocity_shape=(48, 48), n_time_steps=500, n_sources=5,
                         epochs=200, classical_epochs=300, compressor_epochs=60,
                         n_blocks=12, batch_size=8),
    "full": BenchScale(name="full", n_samples=500, n_train=400,
                       velocity_shape=(70, 70), n_time_steps=1000, n_sources=5,
                       epochs=500, classical_epochs=500, compressor_epochs=100,
                       n_blocks=12, batch_size=8),
}


def bench_scale() -> BenchScale:
    """Return the active benchmark scale (``QUGEO_BENCH_SCALE``)."""
    name = env.get_choice(env.BENCH_SCALE, "small", sorted(_SCALES))
    return _SCALES[name]


def data_config() -> QuGeoDataConfig:
    """The paper's scaling targets: 256 seismic values, 8x8 velocity maps."""
    return QuGeoDataConfig(scaled_seismic_shape=(1, 32, 8),
                           scaled_velocity_shape=(8, 8))


def vqc_config(decoder: str = "layer", n_batch_qubits: int = 0) -> QuGeoVQCConfig:
    """The paper's 8-qubit / 12-block QuGeoVQC configuration."""
    scale = bench_scale()
    return QuGeoVQCConfig(n_groups=1, qubits_per_group=8,
                          n_blocks=scale.n_blocks, decoder=decoder,
                          output_shape=(8, 8), n_batch_qubits=n_batch_qubits)


def training_config(epochs: int = None) -> TrainingConfig:
    scale = bench_scale()
    return TrainingConfig(epochs=epochs or scale.epochs, learning_rate=0.1,
                          batch_size=scale.batch_size, eval_every=10, seed=0)


def classical_training_config() -> TrainingConfig:
    scale = bench_scale()
    return TrainingConfig(epochs=scale.classical_epochs, learning_rate=0.01,
                          batch_size=scale.batch_size, eval_every=20, seed=0)


def cache_dir() -> Optional[str]:
    """The dataset-store directory (``QUGEO_CACHE_DIR``), if configured."""
    return env.get_path(env.CACHE_DIR)


def datagen_workers() -> Optional[int]:
    """Worker-pool size for cold dataset builds (``QUGEO_DATAGEN_WORKERS``)."""
    return env.get_int(env.DATAGEN_WORKERS, None, minimum=1)


@lru_cache(maxsize=1)
def raw_splits():
    """Full-resolution train/test/compressor splits (cached).

    Served from the sharded dataset store when ``QUGEO_CACHE_DIR`` is set,
    so repeated benchmark invocations skip forward modelling entirely.
    """
    scale = bench_scale()
    # Extra samples for the Q-D-CNN compressor, disjoint from train/test as in
    # the paper.
    n_compressor = max(8, scale.n_samples // 4)
    dataset = build_flatvel_dataset(n_samples=scale.n_samples + n_compressor,
                                    velocity_shape=scale.velocity_shape,
                                    n_time_steps=scale.n_time_steps,
                                    n_sources=scale.n_sources, rng=0,
                                    cache_dir=cache_dir(),
                                    workers=datagen_workers())
    main = dataset[:scale.n_samples]
    compressor = dataset[scale.n_samples:]
    train, test = train_test_split(main, train_size=scale.n_train, rng=0)
    return train, test, compressor


@lru_cache(maxsize=1)
def scalers():
    """The three QuGeoData scalers (Q-D-CNN trained on the compressor split)."""
    scale = bench_scale()
    config = data_config()
    _, _, compressor_split = raw_splits()
    fw = ForwardModelingScaler(config, simulation_shape=(24, 24),
                               simulation_steps=256)
    return {
        "D-Sample": DSampleScaler(config),
        "Q-D-FW": fw,
        "Q-D-CNN": CNNScaler.train(compressor_split, config=config,
                                   reference_scaler=fw,
                                   epochs=scale.compressor_epochs, rng=0),
    }


@lru_cache(maxsize=None)
def scaled_datasets(method: str):
    """Scaled (train, test) datasets for one scaling method (cached)."""
    train, test, _ = raw_splits()
    scaler = scalers()[method]
    return scaler.scale_dataset(train), scaler.scale_dataset(test)


@lru_cache(maxsize=None)
def trained_quantum_model(decoder: str, method: str,
                          n_batch_qubits: int = 0) -> TrainingResult:
    """Train (once) a QuGeoVQC / QuBatchVQC on one scaled dataset."""
    train, test = scaled_datasets(method)
    config = vqc_config(decoder, n_batch_qubits)
    if n_batch_qubits > 0:
        model: Union[QuGeoVQC, QuBatchVQC] = QuBatchVQC(config, rng=1)
    else:
        model = QuGeoVQC(config, rng=1)
    trainer = QuantumTrainer(training_config())
    return trainer.train(model, train, test)


@lru_cache(maxsize=None)
def trained_classical_model(decoder: str, method: str) -> TrainingResult:
    """Train (once) a CNN baseline on one scaled dataset."""
    train, test = scaled_datasets(method)
    input_size = data_config().scaled_seismic_size
    if decoder == "pixel":
        model = build_cnn_px(input_size, (8, 8), rng=1)
    else:
        model = build_cnn_ly(input_size, (8, 8), rng=1)
    trainer = ClassicalTrainer(classical_training_config())
    return trainer.train(model, train, test)


def write_result(name: str, text: str) -> Path:
    """Print a result table and persist it under ``benchmarks/results``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")
    return path


def _to_jsonable(value):
    """Recursively coerce numpy scalars/arrays so ``json.dump`` accepts them."""
    import numpy as np

    if isinstance(value, dict):
        return {str(key): _to_jsonable(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(entry) for entry in value]
    if isinstance(value, np.ndarray):
        return _to_jsonable(value.tolist())
    if isinstance(value, np.generic):
        return value.item()
    return value


def _git_revision() -> Optional[str]:
    """The working tree's commit sha, or ``None`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(Path(__file__).parent),
            capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def environment_meta() -> Dict[str, object]:
    """Reproducibility metadata embedded in every benchmark JSON."""
    import numpy as np

    return {
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "git_sha": _git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "executable": sys.executable,
    }


def write_json(name: str, payload: Dict, path: Optional[Union[str, Path]] = None
               ) -> Path:
    """Persist one benchmark's machine-readable payload.

    Defaults to ``benchmarks/results/<name>.json``; an explicit ``path``
    (from the shared ``--json`` flag) overrides the destination.  The payload
    is tagged with the benchmark name, the active scale tier and a ``meta``
    block (timestamp, git sha, interpreter/library versions) so a CI
    artifact is self-describing.  When telemetry is recording
    (``QUGEO_TELEMETRY=summary``/``trace``), the registry snapshot rides
    along under ``telemetry``; in ``trace`` mode the span events are also
    written next to the JSON as ``<name>.trace.jsonl``.
    """
    from repro.telemetry import get_telemetry

    if path is None or path == "":
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        path = RESULTS_DIR / f"{name}.json"
    else:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
    document = {"benchmark": name,
                "scale": bench_scale().name,
                "meta": environment_meta()}
    telemetry = get_telemetry()
    if telemetry.enabled:
        document["telemetry"] = telemetry.snapshot()
        if telemetry.tracing:
            trace_path = path.with_suffix(".trace.jsonl")
            telemetry.dump_jsonl(trace_path)
            print(f"[trace written to {trace_path}]")
    document.update(_to_jsonable(payload))
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"[json written to {path}]")
    return path


def add_json_argument(parser) -> None:
    """Attach the shared ``--json [PATH]`` flag to an argparse CLI.

    ``--json`` with no value writes the default
    ``benchmarks/results/<name>.json``; ``--json PATH`` writes to ``PATH``;
    omitting the flag disables JSON output for CLI scripts.
    """
    parser.add_argument("--json", nargs="?", const="", default=None,
                        metavar="PATH",
                        help="write machine-readable results as JSON "
                             "(default path: benchmarks/results/<name>.json)")


def add_cache_dir_argument(parser) -> None:
    """Attach the shared ``--cache-dir PATH`` flag to an argparse CLI.

    Call :func:`apply_cache_dir` with the parsed value so every dataset
    build in the process (including the shared :func:`raw_splits`) is served
    from the sharded store under that directory.
    """
    parser.add_argument("--cache-dir", default=None, metavar="PATH",
                        help="serve generated datasets from a sharded "
                             "on-disk store under PATH (repeated runs skip "
                             "forward modelling); defaults to "
                             "$QUGEO_CACHE_DIR")


def apply_cache_dir(path: Optional[Union[str, Path]]) -> None:
    """Export ``--cache-dir`` so every dataset build in the process sees it."""
    if path:
        env.set_var(env.CACHE_DIR, str(path))
