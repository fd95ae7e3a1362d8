"""Benchmark — per-sample vs batched adjoint gradients during training.

Times one epoch of mini-batch gradient computation of the paper's 8-qubit /
12-block QuGeoVQC (576 parameters) two ways:

* **per-sample** — one ``accumulate_gradients`` call per sample: a batch
  of one through the stacked sweep, so every sample pays the sweep's
  per-gate overhead alone;
* **batched** — ``accumulate_gradients_batch``: one stacked forward pass and
  one stacked backward sweep per mini-batch via
  :func:`repro.quantum.autodiff.circuit_gradients_batched`.

Both run the same code at different batch heights and produce matching
gradients (asserted below to 1e-10); the table
reports epoch wall time and speedup per batch size.  Run directly (CI uses
``--quick --json``)::

    PYTHONPATH=src python benchmarks/bench_training.py --quick --json

The full sweep covers batch sizes 4 / 16 / 64.  Results are printed and
written to ``benchmarks/results/bench_training.txt`` (and ``.json`` with
``--json``).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
from common import add_json_argument, write_json  # noqa: E402

from repro.core.config import QuGeoVQCConfig  # noqa: E402
from repro.core.vqc_model import QuGeoVQC  # noqa: E402
from repro.utils.tables import format_table  # noqa: E402

RESULTS_DIR = Path(__file__).parent / "results"


def _build_model(n_qubits: int, n_blocks: int, decoder: str) -> QuGeoVQC:
    config = QuGeoVQCConfig(n_groups=1, qubits_per_group=n_qubits,
                            n_blocks=n_blocks, decoder=decoder,
                            output_shape=(8, 8))
    return QuGeoVQC(config, rng=1)


def _epoch_per_sample(model: QuGeoVQC, seismic: np.ndarray,
                      velocity: np.ndarray, batch_size: int) -> float:
    """One epoch of per-sample gradient accumulation; returns wall seconds."""
    start = time.perf_counter()
    for batch_start in range(0, seismic.shape[0], batch_size):
        batch_stop = min(batch_start + batch_size, seismic.shape[0])
        model.theta.grad = None
        model.output_scale.grad = None
        weight = 1.0 / (batch_stop - batch_start)
        for index in range(batch_start, batch_stop):
            model.accumulate_gradients(seismic[index], velocity[index],
                                       weight=weight)
    return time.perf_counter() - start


def _epoch_batched(model: QuGeoVQC, seismic: np.ndarray,
                   velocity: np.ndarray, batch_size: int) -> float:
    """One epoch of stacked-sweep gradient accumulation; returns wall seconds."""
    start = time.perf_counter()
    for batch_start in range(0, seismic.shape[0], batch_size):
        model.theta.grad = None
        model.output_scale.grad = None
        model.accumulate_gradients_batch(
            seismic[batch_start:batch_start + batch_size],
            velocity[batch_start:batch_start + batch_size])
    return time.perf_counter() - start


def run_benchmark(batch_sizes: Sequence[int], n_qubits: int, n_blocks: int,
                  decoder: str, n_samples: int, repeats: int
                  ) -> Dict[str, object]:
    """Time both gradient paths per batch size; returns the result payload."""
    rng = np.random.default_rng(0)
    model = _build_model(n_qubits, n_blocks, decoder)
    seismic = rng.normal(size=(n_samples, 2**n_qubits))
    velocity = rng.random((n_samples, 8, 8))

    # Cross-check once per configuration: the two paths must agree.
    check = min(4, n_samples)
    model.theta.grad = None
    model.output_scale.grad = None
    for index in range(check):
        model.accumulate_gradients(seismic[index], velocity[index],
                                   weight=1.0 / check)
    reference = model.theta.grad.copy()
    model.theta.grad = None
    model.output_scale.grad = None
    model.accumulate_gradients_batch(seismic[:check], velocity[:check])
    gradient_gap = float(np.max(np.abs(model.theta.grad - reference)))
    if gradient_gap > 1e-10:
        raise AssertionError(
            f"batched gradients diverge from per-sample path: {gradient_gap:.2e}")

    rows: List[Dict[str, float]] = []
    for batch_size in batch_sizes:
        per_sample = min(_epoch_per_sample(model, seismic, velocity, batch_size)
                         for _ in range(repeats))
        batched = min(_epoch_batched(model, seismic, velocity, batch_size)
                      for _ in range(repeats))
        rows.append({"batch_size": batch_size,
                     "per_sample_epoch_seconds": per_sample,
                     "batched_epoch_seconds": batched,
                     "speedup": per_sample / batched if batched > 0
                     else float("inf")})
    return {"n_qubits": n_qubits, "n_blocks": n_blocks, "decoder": decoder,
            "n_params": model.circuit.n_params, "n_samples": n_samples,
            "backend": model.backend.name, "max_gradient_gap": gradient_gap,
            "rows": rows}


def render(result: Dict[str, object]) -> str:
    table_rows = [[row["batch_size"],
                   row["per_sample_epoch_seconds"] * 1e3,
                   row["batched_epoch_seconds"] * 1e3,
                   f"{row['speedup']:.2f}x"]
                  for row in result["rows"]]
    return format_table(
        ["batch", "per-sample epoch ms", "batched epoch ms", "speedup"],
        table_rows,
        title=f"Training gradients: per-sample vs batched adjoint sweep "
              f"({result['n_qubits']} qubits, {result['n_blocks']} blocks, "
              f"{result['n_params']} params, {result['decoder']} decoder, "
              f"einsum backend)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized run (fewer samples and repeats)")
    parser.add_argument("--qubits", type=int, default=8,
                        help="register size (paper uses 8)")
    parser.add_argument("--blocks", type=int, default=12,
                        help="ansatz blocks (paper uses 12)")
    parser.add_argument("--decoder", choices=("pixel", "layer"),
                        default="pixel")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per cell (best is reported)")
    parser.add_argument("--assert-speedup", type=float, default=None,
                        metavar="FACTOR",
                        help="exit non-zero unless the batched path beats the "
                             "per-sample path by FACTOR at batch size 16")
    add_json_argument(parser)
    args = parser.parse_args()

    if args.quick:
        batch_sizes, n_samples, repeats = (4, 16), 32, args.repeats or 1
    else:
        batch_sizes, n_samples, repeats = (4, 16, 64), 64, args.repeats or 2
    result = run_benchmark(batch_sizes, args.qubits, args.blocks,
                           args.decoder, n_samples, repeats)
    text = render(result)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / "bench_training.txt"
    path.write_text(text + "\n")
    print(text)
    print(f"[written to {path}]")
    if args.json is not None:
        write_json("bench_training", result, path=args.json)

    by_batch = {row["batch_size"]: row["speedup"] for row in result["rows"]}
    if 16 in by_batch:
        print(f"batched vs per-sample at batch 16: {by_batch[16]:.2f}x")
        if args.assert_speedup is not None and by_batch[16] < args.assert_speedup:
            print(f"FAIL: expected >= {args.assert_speedup:.2f}x")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
