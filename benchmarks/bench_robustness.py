"""Benchmark — robustness: SSIM/MSE degradation under injected faults.

Trains a small QuGeoVQC pipeline on the synthetic FlatVel data, then drives
:func:`repro.robustness.evaluate_robustness` over severity grids for the
measurement-realism axes:

* **noise** — band-limited trace noise at decreasing SNR;
* **dead-receivers** — a growing fraction of zeroed receiver channels;
* **finite-shot** — prediction through sampled measurement probabilities
  with a shrinking shot budget (ideal readout is the baseline).

Each axis yields a per-family degradation curve (``ssim_degradation`` =
clean SSIM minus perturbed SSIM).  The run exits non-zero if any guarantee
breaks:

* the same ``(config, seed)`` must give a **bit-identical** perturbed view;
* the perturbed fingerprint must differ from the clean content fingerprint;
* finite-shot prediction must be bit-reproducible under a fixed seed;
* every required axis must produce finite scores.

Run directly (CI uses ``--quick --json``)::

    PYTHONPATH=src python benchmarks/bench_robustness.py --quick --json
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
from common import add_json_argument, write_json  # noqa: E402

from repro.core import DSampleScaler, QuGeoVQC, Trainer  # noqa: E402
from repro.core.config import QuGeoVQCConfig, TrainingConfig  # noqa: E402
from repro.core.experiment import data_config  # noqa: E402
from repro.core.training import ArrayDataSource  # noqa: E402
from repro.data import build_flatvel_dataset, train_test_split  # noqa: E402
from repro.robustness import (  # noqa: E402
    FiniteShotReadout,
    PerturbedView,
    TraceNoise,
    evaluate_robustness,
)
from repro.utils.tables import format_table  # noqa: E402

RESULTS_DIR = Path(__file__).parent / "results"

SEED = 0

REQUIRED_FAMILIES = ("noise", "dead-receivers", "finite-shot")


def build_problem(quick: bool):
    """(train source, test source, scaled sample shape) for the bench size."""
    if quick:
        n_samples, n_train = 14, 10
        velocity_shape, n_time_steps, n_sources = (24, 24), 120, 2
    else:
        n_samples, n_train = 48, 40
        velocity_shape, n_time_steps, n_sources = (32, 32), 300, 4
    dataset = build_flatvel_dataset(n_samples=n_samples,
                                    velocity_shape=velocity_shape,
                                    n_time_steps=n_time_steps,
                                    n_sources=n_sources, rng=SEED)
    train, test = train_test_split(dataset, train_size=n_train, rng=SEED)
    scaled_config = data_config()
    scaler = DSampleScaler(scaled_config)
    sources = []
    for split in (scaler.scale_dataset(train), scaler.scale_dataset(test)):
        seismic = np.stack([sample.seismic.reshape(-1) for sample in split])
        velocity = np.stack([sample.velocity for sample in split])
        sources.append(ArrayDataSource(seismic, velocity))
    return sources[0], sources[1], scaled_config.scaled_seismic_shape


def train_model(train_source, test_source, quick: bool) -> QuGeoVQC:
    config = QuGeoVQCConfig(n_groups=1, qubits_per_group=8,
                            n_blocks=4 if quick else 12, decoder="layer",
                            output_shape=(8, 8))
    model = QuGeoVQC(config, rng=1)
    trainer = Trainer(TrainingConfig(epochs=4 if quick else 30,
                                     learning_rate=0.1, batch_size=5,
                                     eval_every=100, seed=SEED))
    trainer.train(model, train_source, None)
    return model


def axes_for(quick: bool):
    if quick:
        return [
            {"family": "noise", "severities": [20.0, 5.0]},
            {"family": "dead-receivers", "severities": [0.25, 0.5]},
            {"family": "finite-shot", "severities": [4096, 256]},
        ]
    return [
        {"family": "noise", "severities": [30.0, 20.0, 10.0, 5.0]},
        {"family": "dead-receivers", "severities": [0.1, 0.25, 0.5]},
        {"family": "shot-dropout", "severities": [0.25, 0.5]},
        {"family": "gain-jitter", "severities": [0.1, 0.3]},
        {"family": "finite-shot", "severities": [8192, 1024, 128]},
    ]


def check_guarantees(model, source, sample_shape) -> List[str]:
    """The determinism / fingerprint invariants CI enforces every commit."""
    failures: List[str] = []
    indices = np.arange(len(source))
    make_view = lambda: PerturbedView(  # noqa: E731
        source, [TraceNoise(snr_db=10.0)], seed=7, sample_shape=sample_shape)
    seismic_a, _ = make_view().gather(indices)
    seismic_b, _ = make_view().gather(indices)
    if not np.array_equal(seismic_a, seismic_b):
        failures.append("perturbed view is NOT bit-identical across "
                        "same-(config, seed) constructions")
    clean, _ = source.gather(indices)
    if np.array_equal(seismic_a, clean):
        failures.append("perturbation left the data untouched")
    view_fp, clean_fp = make_view().fingerprint(), source.fingerprint()
    if view_fp == clean_fp or "perturbation" not in view_fp:
        failures.append("perturbed fingerprint does not differ from the "
                        "clean content fingerprint")
    sampled_a = FiniteShotReadout(model, n_shots=512, rng=3).predict_batch(
        clean[:2])
    sampled_b = FiniteShotReadout(model, n_shots=512, rng=3).predict_batch(
        clean[:2])
    if not np.array_equal(sampled_a, sampled_b):
        failures.append("finite-shot readout is NOT bit-reproducible under "
                        "a fixed seed")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized run (smaller model / fewer severities)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1],
                        metavar="SEED", help="perturbation / sampling seeds")
    add_json_argument(parser)
    args = parser.parse_args()

    train_source, test_source, sample_shape = build_problem(args.quick)
    model = train_model(train_source, test_source, args.quick)
    failures = check_guarantees(model, test_source, sample_shape)

    report = evaluate_robustness(model, test_source, axes=axes_for(args.quick),
                                 seeds=tuple(args.seeds),
                                 sample_shape=sample_shape)

    rows = []
    for curve in report["curves"]:
        for point in curve["points"]:
            rows.append([curve["family"], point["severity"],
                         f"{point['ssim_mean']:.4f}",
                         f"{point['ssim_std']:.4f}",
                         f"{point['ssim_degradation']:+.4f}",
                         f"{point['mse_mean']:.5f}"])
            if not (np.isfinite(point["ssim_mean"])
                    and np.isfinite(point["mse_mean"])):
                failures.append(f"non-finite scores on {curve['family']} "
                                f"@ {point['severity']}")
    produced = {curve["family"] for curve in report["curves"]}
    for family in REQUIRED_FAMILIES:
        if family not in produced:
            failures.append(f"missing degradation curve for {family!r}")

    baseline = report["baseline"]
    text = format_table(
        ["family", "severity", "ssim", "ssim std", "ssim degradation", "mse"],
        rows,
        title=(f"Robustness degradation vs clean baseline "
               f"(ssim {baseline['ssim']:.4f}, mse {baseline['mse']:.5f}; "
               f"seeds {list(args.seeds)})"))
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / "bench_robustness.txt"
    path.write_text(text + "\n")
    print(text)
    print(f"[written to {path}]")

    if args.json is not None:
        write_json("bench_robustness",
                   {"seeds": list(args.seeds),
                    "baseline": baseline,
                    "curves": report["curves"],
                    "guarantees_ok": not failures},
                   path=args.json)

    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
