"""Dataset store: build once, serve every later run from sharded cache.

Forward modelling is the most expensive step of every experiment, so the
sharded dataset store (:mod:`repro.data.store`) persists generated datasets
under a content fingerprint of ``(OpenFWIConfig, seed, physics)``:

1. ``open_or_build`` generates the dataset (here across a small worker pool
   — bit-identical to a serial build) and writes ``.npz`` shards
   as chunks complete,
2. a second ``open_or_build`` with the same configuration is a pure cache
   hit: zero forward-modelling calls, the shards are just read back,
3. ``stream=True`` returns a :class:`~repro.data.store.ShardLoader` that
   feeds training and batched prediction without materializing the whole
   dataset in memory.

Run with::

    python examples/dataset_store.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

from repro.data import OpenFWIConfig, open_or_build


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="qugeo-store-") as cache_dir:
        run(Path(cache_dir))


def run(cache_dir: Path) -> None:
    config = OpenFWIConfig(n_samples=12, velocity_shape=(24, 24),
                           n_sources=2, n_receivers=24, n_time_steps=120,
                           dx=700.0 / 24, boundary_width=6, chunk_size=3)

    print(f"1) Cold build into {cache_dir} (2 workers, chunked shards)...")
    start = time.perf_counter()
    dataset = open_or_build(config, seed=0, cache_dir=cache_dir, workers=2)
    cold_s = time.perf_counter() - start
    print(f"   built {len(dataset)} samples in {cold_s:.2f}s; cache now holds:")
    for entry in sorted(cache_dir.rglob("*")):
        print(f"     {entry.relative_to(cache_dir)}")

    print("2) Cached re-run (same config + seed -> same fingerprint)...")
    start = time.perf_counter()
    cached = open_or_build(config, seed=0, cache_dir=cache_dir)
    warm_s = time.perf_counter() - start
    identical = np.array_equal(dataset.seismic_array(),
                               cached.seismic_array())
    print(f"   served from shards in {warm_s:.3f}s "
          f"({cold_s / max(warm_s, 1e-9):.0f}x faster), "
          f"bit-identical: {identical}")

    print("3) Streaming access through ShardLoader (no full materialization)...")
    loader = open_or_build(config, seed=0, cache_dir=cache_dir, stream=True)
    seismic, velocity = loader.gather(np.array([0, 5, 11]))
    print(f"   gather([0, 5, 11]) -> seismic {seismic.shape}, "
          f"velocity {velocity.shape}; "
          f"fingerprint keys: {sorted(loader.fingerprint())}")

    print("Done; the temporary store is removed on exit.  Pass cache_dir= "
          "(the figure/table benchmarks read QUGEO_CACHE_DIR) to reuse one "
          "store across runs.")


if __name__ == "__main__":
    main()
