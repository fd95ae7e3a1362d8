"""Benchmark — simulation backends across qubit counts and batch sizes.

Times a batched forward pass of the paper's U3+CU3 ansatz on the two
simulation engines.  The ``numpy`` oracle (``NumpyLoopBackend``) executes the
batch as a Python loop of per-gate statevector updates; the ``einsum`` engine
(``EinsumBatchBackend``; the name is historical) applies the whole gate
stream to the whole batch in one compiled C call, which is where QuBatch
mini-batches and stacked parameter-shift sweeps get their speedup.

Run directly (CI uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_backends.py --quick

The full sweep also exercises 10 qubits and batch 32; ``--qubits`` and
``--batches`` pick other grids, e.g. ``--qubits 8 10 12 --batches 1 16`` to
find where the loop catches up with einsum.  Results are printed and written
to ``benchmarks/results/bench_backends.txt``.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np
from common import add_json_argument, write_json

from repro.backends import EinsumBatchBackend, NumpyLoopBackend
from repro.quantum.ansatz import u3_cu3_ansatz
from repro.utils.tables import format_table

RESULTS_DIR = Path(__file__).parent / "results"


def _random_states(n_qubits: int, batch: int, rng) -> np.ndarray:
    states = (rng.normal(size=(batch, 2**n_qubits))
              + 1j * rng.normal(size=(batch, 2**n_qubits)))
    return states / np.linalg.norm(states, axis=1, keepdims=True)


def time_backend(backend, circuit, states, params, repeats: int) -> float:
    """Best-of-``repeats`` wall time of one batched forward pass in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        backend.run_batched(circuit, states, params)
        best = min(best, time.perf_counter() - start)
    return best


def run_benchmark(qubit_counts: Sequence[int], batch_sizes: Sequence[int],
                  n_blocks: int, repeats: int) -> Tuple[List[List[object]], Dict]:
    """Return table rows and the speedup map ``{(n_qubits, batch): factor}``.

    The ``numpy`` oracle leads; speedups are the engine's relative to it.
    """
    rng = np.random.default_rng(0)
    rows: List[List[object]] = []
    speedups: Dict[Tuple[int, int], float] = {}
    backends = [NumpyLoopBackend(), EinsumBatchBackend()]
    baseline_name = backends[0].name
    for n_qubits in qubit_counts:
        circuit = u3_cu3_ansatz(n_qubits, n_blocks=n_blocks)
        params = rng.normal(size=circuit.n_params)
        for batch in batch_sizes:
            states = _random_states(n_qubits, batch, rng)
            timings = {}
            for backend in backends:
                # One untimed pass first (imports, allocator warm-up).
                backend.run_batched(circuit, states, params)
                timings[backend.name] = time_backend(backend, circuit, states,
                                                     params, repeats)
            baseline = timings[baseline_name]
            for name in timings:
                elapsed = timings[name]
                factor = baseline / elapsed if elapsed > 0 else float("inf")
                if name != baseline_name:
                    speedups[(n_qubits, batch)] = factor
                rows.append([name, n_qubits, batch, len(circuit),
                             elapsed * 1e3, elapsed * 1e3 / batch,
                             f"{factor:.2f}x"])
    return rows, speedups


def render(rows: List[List[object]]) -> str:
    return format_table(
        ["backend", "qubits", "batch", "gates", "total ms", "ms/sample",
         "vs loop"],
        rows,
        title="Backend comparison: batched forward pass of the U3+CU3 ansatz")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized sweep (fewer qubit counts and batches)")
    parser.add_argument("--blocks", type=int, default=12,
                        help="ansatz blocks (paper uses 12)")
    parser.add_argument("--qubits", type=int, nargs="+", default=None,
                        help="qubit counts to sweep (overrides the preset)")
    parser.add_argument("--batches", type=int, nargs="+", default=None,
                        help="batch sizes to sweep (overrides the preset)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats per cell (best is reported)")
    parser.add_argument("--assert-speedup", type=float, default=None,
                        metavar="FACTOR",
                        help="exit non-zero unless the einsum backend beats "
                             "the loop backend by FACTOR at batch >= 8 and "
                             ">= 6 qubits")
    add_json_argument(parser)
    args = parser.parse_args()

    if args.quick:
        qubit_counts, batch_sizes = (4, 6, 8), (1, 8)
    else:
        qubit_counts, batch_sizes = (4, 6, 8, 10), (1, 8, 32)
    qubit_counts = args.qubits or qubit_counts
    batch_sizes = args.batches or batch_sizes
    rows, speedups = run_benchmark(qubit_counts, batch_sizes, args.blocks,
                                   args.repeats)
    text = render(rows)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / "bench_backends.txt"
    path.write_text(text + "\n")
    print(text)
    print(f"[written to {path}]")
    if args.json is not None:
        header = ["backend", "qubits", "batch", "gates", "total_ms",
                  "ms_per_sample", "vs_loop"]
        write_json("bench_backends",
                   {"n_blocks": args.blocks,
                    "rows": [dict(zip(header, row)) for row in rows],
                    "speedups": {f"{q}q_b{b}": factor
                                 for (q, b), factor in speedups.items()}},
                   path=args.json)

    relevant = {key: factor for key, factor in speedups.items()
                if key[0] >= 6 and key[1] >= 8}
    if relevant:
        best = max(relevant.values())
        print(f"einsum vs loop at batch >= 8, >= 6 qubits: best "
              f"{best:.2f}x, worst {min(relevant.values()):.2f}x")
        if args.assert_speedup is not None and best < args.assert_speedup:
            print(f"FAIL: expected >= {args.assert_speedup:.2f}x")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
