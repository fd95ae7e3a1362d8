"""Telemetry: profile a tiny training run and export a JSONL trace.

The observability subsystem (:mod:`repro.telemetry`) instruments the hot
paths of the whole stack — the einsum backend's forward passes, the batched
gradient sweeps, the acoustic propagator's time loop, the dataset
store's shard/LRU traffic and the trainer's epoch loop.  This example:

1. switches the process-wide registry to ``trace`` mode (the same thing
   ``QUGEO_TELEMETRY=trace`` does from the environment),
2. trains a tiny 4-qubit QuGeoVQC for a few epochs on random data,
3. prints the ASCII profile (span tree, timers, counters), and
4. dumps every recorded span event as JSONL into a temporary directory,
   which is removed when the example exits.

Run with::

    python examples/telemetry_profile.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.core import QuGeoVQC, QuGeoVQCConfig, Trainer, TrainingConfig
from repro.core.training import ArrayDataSource
from repro.telemetry import configure


def main() -> None:
    print("1) Enabling telemetry in trace mode (summary stats + span events)")
    telemetry = configure("trace", reset=True)

    config = QuGeoVQCConfig(n_groups=1, qubits_per_group=4, n_blocks=2,
                            decoder="layer", output_shape=(4, 4))
    model = QuGeoVQC(config, rng=0)
    rng = np.random.default_rng(0)
    train = ArrayDataSource(rng.normal(size=(12, 16)),
                            rng.uniform(size=(12, 4, 4)))
    test = ArrayDataSource(rng.normal(size=(4, 16)),
                           rng.uniform(size=(4, 4, 4)))

    print("2) Training a 4-qubit QuGeoVQC for 3 epochs...")
    trainer = Trainer(TrainingConfig(epochs=3, batch_size=4, eval_every=1,
                                     learning_rate=0.05, seed=0))
    result = trainer.train(model, train, test)
    print(f"   final test SSIM: {result.final_metrics['test_ssim']:.4f}")
    print(f"   per-epoch wall seconds: "
          f"{[round(v, 4) for v in result.logger.history('epoch_seconds')]}")

    print("\n3) Profile of everything the run recorded:\n")
    print(telemetry.profile_table())

    with tempfile.TemporaryDirectory(prefix="qugeo-telemetry-") as trace_dir:
        trace_path = Path(trace_dir) / "run.jsonl"
        telemetry.dump_jsonl(trace_path)
        lines = len(trace_path.read_text().splitlines())
        print(f"\n4) {telemetry.snapshot()['trace_events']} span events dumped "
              f"to {trace_path} ({lines} lines; removed on exit)")

    configure("off", reset=True)


if __name__ == "__main__":
    main()
