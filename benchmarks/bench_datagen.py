"""Benchmark — dataset generation: serial vs parallel vs cache-hit.

Times the synthetic OpenFWI-style dataset build three ways:

* **serial** — :meth:`SyntheticOpenFWI.build` in-process, one chunk at a
  time;
* **parallel** — the same chunks fanned across a ``multiprocessing`` pool
  (``build(workers=N)``, through :func:`repro.data.store.build_dataset`).
  Because every chunk owns a seeded RNG stream, the output is
  **bit-identical** to serial (asserted);
* **cache-hit** — :func:`repro.data.store.open_or_build` against a warm
  sharded store: the dataset is read back from its ``.npz`` shards with
  **zero** forward-modelling calls (asserted via an instrumented
  ``ForwardModel``).

Run directly (CI uses ``--quick --json``)::

    PYTHONPATH=src python benchmarks/bench_datagen.py --quick --json

The benchmark exits non-zero if the parallel build diverges from serial or
the cache-hit run touches the forward model, so CI enforces both
guarantees on every commit.  ``--assert-speedup FACTOR`` additionally
requires the parallel build to beat serial by FACTOR (meaningful on the
default size with >= 4 physical cores; the quick CI size is too small to
amortise worker startup).
"""

from __future__ import annotations

import argparse
import dataclasses
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
from common import add_json_argument, write_json  # noqa: E402

from repro.data import OpenFWIConfig, SyntheticOpenFWI  # noqa: E402
from repro.data.store import (  # noqa: E402
    DatasetStore,
    dataset_fingerprint,
    open_or_build,
)
from repro.seismic import (  # noqa: E402
    nyquist_record_stride,
    stable_time_step,
)
from repro.seismic.forward_modeling import ForwardModel  # noqa: E402
from repro.utils.tables import format_table  # noqa: E402

RESULTS_DIR = Path(__file__).parent / "results"

SEED = 0


@contextmanager
def count_forward_calls(counter: Dict[str, int]):
    """Instrument ``ForwardModel.model_shots_batch`` to count invocations."""
    original = ForwardModel.model_shots_batch

    def counting(self, *args, **kwargs):
        counter["calls"] += 1
        return original(self, *args, **kwargs)

    ForwardModel.model_shots_batch = counting
    try:
        yield counter
    finally:
        ForwardModel.model_shots_batch = original


def build_config(quick: bool) -> OpenFWIConfig:
    if quick:
        return OpenFWIConfig(n_samples=12, velocity_shape=(24, 24),
                             n_sources=2, n_receivers=24, n_time_steps=120,
                             dx=700.0 / 24, boundary_width=6, chunk_size=2)
    # Sized so forward modelling dominates worker startup: with >= 4
    # physical cores the 16 chunks fan out to a >= 2x wall-clock win.
    return OpenFWIConfig(n_samples=64, velocity_shape=(32, 32),
                         n_sources=4, n_receivers=32, n_time_steps=400,
                         dx=700.0 / 32, boundary_width=8, chunk_size=4)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized run (fewer samples / time steps)")
    parser.add_argument("--workers", type=int, default=4,
                        help="worker-pool size for the parallel build")
    parser.add_argument("--assert-speedup", type=float, default=None,
                        metavar="FACTOR",
                        help="exit non-zero unless the parallel build beats "
                             "serial by FACTOR")
    parser.add_argument("--cache-dir", metavar="PATH", help="store root (default: a temp dir)")
    add_json_argument(parser)
    args = parser.parse_args()

    config = build_config(args.quick)
    temp_root = None
    if args.cache_dir:
        cache_root = Path(args.cache_dir)
    else:
        temp_root = tempfile.mkdtemp(prefix="qugeo-datagen-")
        cache_root = Path(temp_root)
    fingerprint = dataset_fingerprint(config, SEED)
    # A stale entry would turn the "cold build" row into a cache hit.
    entry = DatasetStore(cache_root).entry_dir(fingerprint)
    if entry.exists():
        shutil.rmtree(entry)

    failures: List[str] = []
    rows: List[List[object]] = []

    counter = {"calls": 0}
    with count_forward_calls(counter):
        start = time.perf_counter()
        serial = SyntheticOpenFWI(config, rng=SEED).build()
        serial_s = time.perf_counter() - start
    serial_calls = counter["calls"]
    rows.append(["serial", config.n_samples, 1, serial_s, serial_calls, "1.00x"])

    start = time.perf_counter()
    parallel = SyntheticOpenFWI(config, rng=SEED).build(workers=args.workers)
    parallel_s = time.perf_counter() - start
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    rows.append(["parallel", config.n_samples, args.workers, parallel_s,
                 "(in workers)", f"{speedup:.2f}x"])
    identical = (np.array_equal(serial.seismic_array(),
                                parallel.seismic_array())
                 and np.array_equal(serial.velocity_array(),
                                    parallel.velocity_array()))
    if not identical:
        failures.append("parallel build is NOT bit-identical to serial")

    counter = {"calls": 0}
    with count_forward_calls(counter):
        start = time.perf_counter()
        cold = open_or_build(config, seed=SEED, cache_dir=cache_root)
        cold_s = time.perf_counter() - start
    cold_calls = counter["calls"]
    rows.append(["cold build -> store", config.n_samples, 1, cold_s,
                 cold_calls, f"{serial_s / cold_s:.2f}x"])
    if not np.array_equal(cold.seismic_array(), serial.seismic_array()):
        failures.append("stored build is NOT bit-identical to serial")

    counter = {"calls": 0}
    with count_forward_calls(counter):
        start = time.perf_counter()
        cached = open_or_build(config, seed=SEED, cache_dir=cache_root)
        cache_s = time.perf_counter() - start
    cache_calls = counter["calls"]
    rows.append(["cache hit", config.n_samples, 1, cache_s, cache_calls,
                 f"{serial_s / cache_s:.2f}x"])
    if cache_calls != 0:
        failures.append(f"cache hit ran {cache_calls} forward-modelling "
                        "calls (expected 0)")
    if not (np.array_equal(cached.seismic_array(), serial.seismic_array())
            and np.array_equal(cached.velocity_array(),
                               serial.velocity_array())):
        failures.append("cache hit is NOT bit-identical to serial")

    # Compact gather storage: on a paper-scale grid spacing (10 m, where the
    # CFL time step oversamples a 15 Hz source ~4x) build the same dataset
    # at full recording rate and at the largest Nyquist-safe stride, then
    # compare on-disk shard bytes.  The bench configs above use a coarser
    # dx whose CFL step is already near the signal band (stride 1), so the
    # storage comparison gets its own config pair.
    store = DatasetStore(cache_root)
    demo_full = dataclasses.replace(config, dx=10.0)
    dt = stable_time_step(demo_full.model_config.max_velocity, dx=10.0,
                          dz=10.0, spatial_order=demo_full.spatial_order)
    stride = nyquist_record_stride(dt, demo_full.peak_frequency)
    demo_strided = dataclasses.replace(demo_full, record_every=stride)
    timing = {}
    for label, demo in (("full rate", demo_full),
                        (f"record stride {stride}", demo_strided)):
        entry = store.entry_dir(dataset_fingerprint(demo, SEED))
        if entry.exists():
            shutil.rmtree(entry)
        start = time.perf_counter()
        loader = open_or_build(demo, seed=SEED, cache_dir=cache_root,
                               stream=True)
        timing[label] = time.perf_counter() - start
        rows.append([f"{label} (dx=10)", demo.n_samples, 1, timing[label],
                     "-", "-"])

    def entry_bytes(demo_config) -> int:
        entry = store.entry_dir(dataset_fingerprint(demo_config, SEED))
        return sum(f.stat().st_size for f in entry.rglob("*.npz"))

    full_bytes = entry_bytes(demo_full)
    strided_bytes = entry_bytes(demo_strided)
    shard_reduction = (1.0 - strided_bytes / full_bytes if full_bytes
                       else 0.0)
    effective_dt = loader.effective_dt
    if (dataset_fingerprint(demo_strided, SEED)
            == dataset_fingerprint(demo_full, SEED)):
        failures.append("record_every did not change the dataset fingerprint")
    if stride > 1 and strided_bytes >= full_bytes:
        failures.append(
            f"strided shards ({strided_bytes} B) are not smaller than "
            f"full-rate shards ({full_bytes} B)")

    text = format_table(
        ["path", "samples", "workers", "seconds", "forward calls",
         "vs serial"],
        rows,
        title=f"Dataset generation: {config.n_samples} maps "
              f"{config.velocity_shape[0]}x{config.velocity_shape[1]}, "
              f"{config.n_sources} shots x {config.n_time_steps} steps "
              f"(chunk {config.chunk_size})")
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / "bench_datagen.txt"
    path.write_text(text + "\n")
    print(text)
    print(f"[written to {path}]")
    print(f"parallel vs serial: {speedup:.2f}x "
          f"({args.workers} workers); cache hit: "
          f"{serial_s / cache_s:.2f}x, {cache_calls} forward calls")
    print(f"record stride {stride} (Nyquist-safe at "
          f"{demo_full.peak_frequency:g} Hz, dx=10): shards "
          f"{strided_bytes:,} B vs {full_bytes:,} B full rate "
          f"({shard_reduction:.1%} smaller), effective dt "
          f"{effective_dt:.6f} s")

    if args.json is not None:
        write_json("bench_datagen",
                   {"n_samples": config.n_samples,
                    "chunk_size": config.chunk_size,
                    "workers": args.workers,
                    "serial_s": serial_s,
                    "parallel_s": parallel_s,
                    "parallel_speedup": speedup,
                    "parallel_bit_identical": identical,
                    "cold_build_s": cold_s,
                    "cold_forward_calls": cold_calls,
                    "cache_hit_s": cache_s,
                    "cache_hit_forward_calls": cache_calls,
                    "cache_hit_is_noop": cache_calls == 0,
                    "fingerprint": fingerprint,
                    "record_every": stride,
                    "effective_dt": effective_dt,
                    "full_store_bytes": full_bytes,
                    "strided_store_bytes": strided_bytes,
                    "shard_size_reduction": shard_reduction,
                    "strided_fingerprint": dataset_fingerprint(demo_strided,
                                                               SEED)},
                   path=args.json)

    if temp_root is not None:
        shutil.rmtree(temp_root, ignore_errors=True)

    if args.assert_speedup is not None and speedup < args.assert_speedup:
        failures.append(f"expected parallel >= {args.assert_speedup:.2f}x, "
                        f"got {speedup:.2f}x")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
