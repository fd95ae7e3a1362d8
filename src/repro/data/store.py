"""Sharded on-disk dataset store with parallel generation.

Forward modelling dominates the cost of every experiment once training is
batched, and nothing used to survive between runs.  This module persists
generated datasets as uncompressed ``.npz`` shards under a **content
fingerprint** of the generating configuration — ``OpenFWIConfig`` + root RNG
seed + the code-relevant physics parameters (time step, recording stride,
format version) — so that:

* a second run with the same configuration is a pure cache hit (zero
  forward-modelling calls),
* an interrupted build resumes from its missing chunks,
* generation fans out over a ``multiprocessing`` pool with **bit-identical**
  output (every chunk owns a seeded RNG stream, see
  :meth:`repro.data.openfwi.SyntheticOpenFWI.chunk_rng`).

:func:`build_dataset` is the one chunk loop behind all of it, called by
:meth:`SyntheticOpenFWI.build <repro.data.openfwi.SyntheticOpenFWI.build>`
and :func:`open_or_build`.

Layout on disk::

    <cache_dir>/<fingerprint>/manifest.json
    <cache_dir>/<fingerprint>/shard-00000.npz   # float64 seismic + velocity
    <cache_dir>/<fingerprint>/shard-00001.npz
    ...

Shards are written uncompressed (zip ``STORED``): zlib shrinks float64
gathers by only ~7%, yet took ~40% of a FlatVelA-size build and re-open.  The
manifest's sha256 certifies the on-disk bytes and the zip CRC-32 still
guards every read.  ``np.load`` reads deflated shards written by older
releases just as well, so those entries stay valid under the same format
version.

The manifest records, per shard, the sample count and the per-sample content
sums; :class:`ShardLoader` uses them to compute the same order-sensitive
content fingerprint the training engine embeds in checkpoints — without
reading a single shard — and streams mini-batches into
:class:`repro.core.training.Trainer` / ``predict_in_batches`` with at most a
few shards in memory at a time.

Fingerprints invalidate whenever any input that can change the generated
bits changes: every ``OpenFWIConfig`` field (including ``chunk_size``, which
determines how samples map onto RNG streams), the seed, the sample count,
the CFL time step derived from the physics, the recording stride and
:data:`DATA_FORMAT_VERSION` (bumped when generation code changes
behaviour).
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import json
import multiprocessing
import os
import warnings
from pathlib import Path
from time import perf_counter, sleep
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.data.dataset import FWIDataset, FWISample
from repro.data.openfwi import OpenFWIConfig, SyntheticOpenFWI, chunk_layout
from repro.telemetry import get_telemetry
from repro.utils.serialization import atomic_replace

PathLike = Union[str, "os.PathLike[str]"]

#: Bump when the generation code changes the bits it produces for the same
#: configuration (new physics, different normalization, ...).  Part of the
#: fingerprint, so stale cache entries are never served.  Version 2: the
#: batched Laplacian is the banded matmul on every host, where version 1
#: generated different rounding with and without SciPy.  Version 3: grid
#: axes of 40 cells or more multiply only the stencil band, block by block,
#: which moves the last bits of the gathers at some grid shapes.  Version 4:
#: the fused C time loop reproduces the scalar oracle's rounding bit for bit
#: (its fallback is the oracle itself), which moves the gathers by ~1e-15
#: from the banded-matmul loop's.
DATA_FORMAT_VERSION = 4

MANIFEST_NAME = "manifest.json"

#: Subdirectory (inside an entry) that corrupt shards are moved into — kept
#: for post-mortems instead of deleted, out of the way of the rebuild.
QUARANTINE_DIR = "quarantine"


class ShardIntegrityError(ValueError):
    """A shard file is missing, truncated, or fails its checksum."""


# --------------------------------------------------------------------------- #
# fingerprints
# --------------------------------------------------------------------------- #
def _jsonable(value):
    """Recursively coerce a config payload into canonical JSON-stable form."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonable(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(key): _jsonable(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(entry) for entry in value]
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, np.generic):
        return value.item()
    return value


def dataset_fingerprint(config: OpenFWIConfig, seed: int,
                        n_samples: Optional[int] = None) -> str:
    """Content fingerprint of a generated dataset.

    Two builds share a fingerprint exactly when they produce bit-identical
    data: the fingerprint digests every ``OpenFWIConfig`` field, the root
    seed, the effective sample count, and the code-relevant physics
    parameters (the CFL-stable time step, the recording stride and
    :data:`DATA_FORMAT_VERSION`).

    The ``boundary`` field is validated (only the sponge exists) and left
    out of the digest, and ``record_every`` is left out at its default 1,
    so every fingerprint minted before those fields existed still addresses
    the same cached shards.  For the same reason the payload still names
    the ``"batched"`` propagator, the one engine that generates data.
    """
    from repro.seismic.acoustic2d import stable_time_step
    from repro.seismic.boundary import resolve_boundary_name

    config_payload = _jsonable(config)
    resolve_boundary_name(config_payload.pop("boundary", None))
    record_every = int(config_payload.pop("record_every", 1) or 1)
    payload = {
        "format_version": DATA_FORMAT_VERSION,
        "seed": int(seed),
        "n_samples": int(n_samples if n_samples is not None
                         else config.n_samples),
        "config": config_payload,
        "dt": stable_time_step(config.model_config.max_velocity,
                               dx=config.dx, dz=config.dx,
                               spatial_order=config.spatial_order),
        "propagator": "batched",
    }
    if record_every != 1:
        payload["record_every"] = record_every
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def content_fingerprint(seismic_shape: Sequence[int],
                        velocity_shape: Sequence[int],
                        sample_seismic_sums: np.ndarray,
                        sample_velocity_sums: np.ndarray) -> Dict[str, object]:
    """Cheap order-sensitive identity of a stacked dataset.

    Shapes, content sums and a position-weighted digest — the latter makes
    the fingerprint order-sensitive, so the same samples in a different
    order are detected too.  The training engine embeds this in checkpoints
    (to refuse resuming against different data), and :class:`ShardLoader`
    computes the identical value from manifest metadata alone.
    """
    seismic_sums = np.asarray(sample_seismic_sums, dtype=np.float64).reshape(-1)
    velocity_sums = np.asarray(sample_velocity_sums,
                               dtype=np.float64).reshape(-1)
    weights = np.arange(1, seismic_sums.size + 1, dtype=np.float64)
    return {"seismic_shape": tuple(int(s) for s in seismic_shape),
            "velocity_shape": tuple(int(s) for s in velocity_shape),
            "seismic_sum": float(seismic_sums.sum()),
            "velocity_sum": float(velocity_sums.sum()),
            "order_digest": float(weights @ seismic_sums)}


# --------------------------------------------------------------------------- #
# file digests
# --------------------------------------------------------------------------- #
def _file_sha256(path: Path) -> str:
    """Streaming SHA-256 of a file's bytes."""
    digest = hashlib.sha256()
    with open(str(path), "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# --------------------------------------------------------------------------- #
# the store
# --------------------------------------------------------------------------- #
class DatasetStore:
    """A directory of fingerprint-keyed sharded dataset entries."""

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)

    # -- paths ---------------------------------------------------------- #
    def entry_dir(self, fingerprint: str) -> Path:
        return self.root / fingerprint

    def manifest_path(self, fingerprint: str) -> Path:
        return self.entry_dir(fingerprint) / MANIFEST_NAME

    def shard_path(self, fingerprint: str, chunk_index: int) -> Path:
        return self.entry_dir(fingerprint) / f"shard-{chunk_index:05d}.npz"

    # -- manifest ------------------------------------------------------- #
    def read_manifest(self, fingerprint: str) -> Optional[Dict[str, object]]:
        path = self.manifest_path(fingerprint)
        if not path.exists():
            return None
        manifest = json.loads(path.read_text())
        if manifest.get("format_version") != DATA_FORMAT_VERSION:
            raise ValueError(
                f"store entry {fingerprint} uses format version "
                f"{manifest.get('format_version')!r}; this code reads "
                f"{DATA_FORMAT_VERSION}")
        return manifest

    def write_manifest(self, fingerprint: str,
                       manifest: Dict[str, object]) -> None:
        blob = json.dumps(manifest, indent=2, sort_keys=True,
                          default=str) + "\n"
        atomic_replace(self.manifest_path(fingerprint),
                       lambda handle: handle.write(blob.encode("utf-8")))

    def init_manifest(self, fingerprint: str, *, n_samples: int,
                      chunk_size: int, name: str = "dataset",
                      config: Optional[OpenFWIConfig] = None,
                      seed: Optional[int] = None,
                      metadata: Optional[Dict[str, object]] = None
                      ) -> Dict[str, object]:
        """Read the entry's manifest, creating a fresh incomplete one if absent.

        An existing manifest is validated against the requested geometry so a
        (vanishingly unlikely) fingerprint collision, or a manifest edited by
        hand, fails loudly instead of mixing incompatible shards.
        """
        manifest = self.read_manifest(fingerprint)
        if manifest is not None:
            if (int(manifest["n_samples"]) != int(n_samples)
                    or int(manifest["chunk_size"]) != int(chunk_size)):
                raise ValueError(
                    f"store entry {fingerprint} was built for "
                    f"{manifest['n_samples']} samples in chunks of "
                    f"{manifest['chunk_size']}; requested {n_samples} in "
                    f"chunks of {chunk_size}")
            return manifest
        manifest = {
            "format_version": DATA_FORMAT_VERSION,
            "fingerprint": fingerprint,
            "name": str(name),
            "n_samples": int(n_samples),
            "chunk_size": int(chunk_size),
            "config": _jsonable(config) if config is not None else None,
            "seed": int(seed) if seed is not None else None,
            "metadata": _jsonable(metadata or {}),
            "shards": {},
            "complete": False,
        }
        self.write_manifest(fingerprint, manifest)
        return manifest

    # -- shards --------------------------------------------------------- #
    def write_shard(self, fingerprint: str, manifest: Dict[str, object],
                    chunk_index: int, start: int,
                    seismic: np.ndarray, velocity: np.ndarray
                    ) -> Dict[str, object]:
        """Persist one chunk's arrays and record it in ``manifest``.

        The shard file lands atomically first, then the updated manifest —
        so a crash between the two leaves a shard the next resume simply
        re-registers-or-regenerates, never a manifest pointing at missing
        data.  A chunk holding NaN or inf raises ``ValueError`` before
        anything is written, so no checksum ever certifies garbage.
        """
        seismic = np.ascontiguousarray(seismic, dtype=np.float64)
        velocity = np.ascontiguousarray(velocity, dtype=np.float64)
        if seismic.shape[0] != velocity.shape[0]:
            raise ValueError("seismic / velocity chunk lengths differ")
        for name, array in (("seismic", seismic), ("velocity", velocity)):
            if not np.isfinite(array).all():
                raise ValueError(f"chunk {chunk_index}: {name} holds NaN or "
                                 "inf; refusing to store it")
        path = self.shard_path(fingerprint, chunk_index)
        telemetry = get_telemetry()
        telemetry.counter("store.shard_writes").inc()
        with telemetry.span("store.write_shard"):
            atomic_replace(path, lambda handle: np.savez(
                handle, seismic=seismic, velocity=velocity))
        record = {
            "file": path.name,
            "start": int(start),
            "count": int(seismic.shape[0]),
            # Checksum of the on-disk bytes: a torn copy, bit rot, or a
            # truncated file is caught by validate_entry before the shard
            # is ever loaded into training data.
            "sha256": _file_sha256(path),
            "seismic_sums": [float(s) for s in
                             seismic.reshape(seismic.shape[0], -1).sum(axis=1)],
            "velocity_sums": [float(s) for s in
                              velocity.reshape(velocity.shape[0], -1).sum(axis=1)],
        }
        manifest["shards"][str(chunk_index)] = record
        self.write_manifest(fingerprint, manifest)
        return record

    def read_shard(self, fingerprint: str,
                   chunk_index: int) -> Tuple[np.ndarray, np.ndarray]:
        telemetry = get_telemetry()
        path = self.shard_path(fingerprint, chunk_index)
        with telemetry.span("store.read_shard"):
            try:
                with np.load(str(path)) as data:
                    seismic, velocity = data["seismic"], data["velocity"]
            except (OSError, ValueError, EOFError, KeyError) as exc:
                raise ShardIntegrityError(
                    f"shard {path} is unreadable: {exc}") from exc
            except Exception as exc:  # zipfile.BadZipFile and friends
                if type(exc).__module__ != "zipfile":
                    raise
                raise ShardIntegrityError(
                    f"shard {path} is corrupt: {exc}") from exc
        if telemetry.enabled:
            telemetry.counter("store.shard_reads").inc()
            telemetry.counter("store.bytes_read").inc(
                int(seismic.nbytes) + int(velocity.nbytes))
        return seismic, velocity

    # -- integrity ------------------------------------------------------- #
    def verify_shard(self, fingerprint: str, chunk_index: int,
                     record: Dict[str, object]) -> Optional[str]:
        """Check one shard against its manifest record.

        Returns a problem description, or ``None`` when the shard's bytes
        match the record's ``sha256``.  Every record of this format version
        is written with one, so a record without it (edited by hand) is a
        problem too: the shard is rebuilt, not trusted.
        """
        path = self.shard_path(fingerprint, chunk_index)
        if not path.exists():
            return "file missing"
        expected = record.get("sha256")
        if expected is None:
            return "no checksum in manifest"
        actual = _file_sha256(path)
        if actual != str(expected):
            return f"checksum mismatch (manifest {expected}, file {actual})"
        return None

    def quarantine_shard(self, fingerprint: str, chunk_index: int) -> None:
        """Move a corrupt shard into the entry's quarantine directory."""
        path = self.shard_path(fingerprint, chunk_index)
        if not path.exists():
            return
        quarantine = self.entry_dir(fingerprint) / QUARANTINE_DIR
        quarantine.mkdir(parents=True, exist_ok=True)
        destination = quarantine / path.name
        suffix = 0
        while destination.exists():
            suffix += 1
            destination = quarantine / f"{path.name}.{suffix}"
        os.replace(str(path), str(destination))
        get_telemetry().counter("store.shard_quarantined").inc()

    def validate_entry(self, fingerprint: str,
                       manifest: Optional[Dict[str, object]] = None
                       ) -> List[int]:
        """Verify every registered shard of an entry; quarantine failures.

        Returns the chunk indices that failed.  Each failing shard is moved
        to quarantine and dropped from the manifest, and the entry is marked
        incomplete — the normal resume path of :func:`build_dataset` then
        regenerates exactly those chunks.
        Passing the already-loaded ``manifest`` keeps the caller's dict in
        sync with what lands on disk.
        """
        if manifest is None:
            manifest = self.read_manifest(fingerprint)
        if manifest is None:
            return []
        telemetry = get_telemetry()
        bad: List[int] = []
        with telemetry.span("store.validate"):
            for key in sorted(manifest["shards"], key=int):
                problem = self.verify_shard(fingerprint, int(key),
                                            manifest["shards"][key])
                if problem is not None:
                    bad.append(int(key))
                    telemetry.counter(
                        "store.shard_validation_failures").inc()
                    warnings.warn(
                        f"store entry {fingerprint} shard {key}: {problem}",
                        stacklevel=2)
        if bad:
            for chunk in bad:
                self.quarantine_shard(fingerprint, chunk)
                manifest["shards"].pop(str(chunk), None)
            manifest["complete"] = False
            self.write_manifest(fingerprint, manifest)
        return bad

    def finalize(self, fingerprint: str, manifest: Dict[str, object]) -> None:
        """Mark an entry complete once every chunk's shard is registered."""
        expected = chunk_layout(int(manifest["n_samples"]),
                                int(manifest["chunk_size"]))
        missing = [index for index, _, _ in expected
                   if str(index) not in manifest["shards"]]
        if missing:
            raise ValueError(f"cannot finalize {fingerprint}: missing chunks "
                             f"{missing}")
        manifest["complete"] = True
        self.write_manifest(fingerprint, manifest)

    # -- loading -------------------------------------------------------- #
    def load(self, fingerprint: str,
             stream: bool = False) -> Union[FWIDataset, "ShardLoader"]:
        """Load a complete entry: materialized by default, lazy with ``stream``."""
        loader = ShardLoader(self, fingerprint)
        return loader if stream else loader.materialize()


# --------------------------------------------------------------------------- #
# streaming loader
# --------------------------------------------------------------------------- #
class ShardLoader:
    """Lazy random access over a complete store entry.

    Implements the data-source duck type the training engine consumes
    (``__len__`` / ``gather`` / ``fingerprint``) plus enough of the
    :class:`~repro.data.dataset.FWIDataset` surface (iteration, indexing,
    ``subset``) that ``train_test_split`` and the evaluation
    helpers work unchanged — while keeping at most ``max_cached_shards``
    loaded shards in memory.

    Access-pattern note: within one :meth:`gather` call every needed shard
    is read at most once, so sequential sweeps (evaluation, prediction)
    stream optimally at any cache size.  Globally-shuffled mini-batches
    (the trainer's epoch loop) touch up to ``min(batch_size, n_shards)``
    shards per batch; when the dataset spans more shards than
    ``max_cached_shards``, each batch re-reads its shards from disk —
    bounded memory traded for shard read time.  If the shard count is
    modest, raise ``max_cached_shards`` toward it to make shuffled epochs
    disk-free after the first.
    """

    def __init__(self, store: DatasetStore, fingerprint: str,
                 indices: Optional[np.ndarray] = None,
                 max_cached_shards: int = 4) -> None:
        manifest = store.read_manifest(fingerprint)
        if manifest is None:
            raise FileNotFoundError(
                f"no store entry {fingerprint} under {store.root}")
        if not manifest.get("complete"):
            raise ValueError(f"store entry {fingerprint} is incomplete; "
                             "resume the build before loading it")
        if max_cached_shards < 1:
            raise ValueError("max_cached_shards must be at least 1")
        self._store = store
        self._fingerprint_key = fingerprint
        self._manifest = manifest
        self.name = str(manifest.get("name", "dataset"))
        self._metadata = dict(manifest.get("metadata") or {})
        layout = chunk_layout(int(manifest["n_samples"]),
                              int(manifest["chunk_size"]))
        self._chunk_indices = np.array([index for index, _, _ in layout])
        self._starts = np.array([start for _, start, _ in layout])
        self._counts = np.array([count for _, _, count in layout])
        self._total = int(manifest["n_samples"])
        sums = {"seismic": [], "velocity": []}
        for index, _, _ in layout:
            record = manifest["shards"][str(index)]
            sums["seismic"].extend(record["seismic_sums"])
            sums["velocity"].extend(record["velocity_sums"])
        self._seismic_sums = np.asarray(sums["seismic"], dtype=np.float64)
        self._velocity_sums = np.asarray(sums["velocity"], dtype=np.float64)
        self._indices = (np.arange(self._total) if indices is None
                         else np.asarray(indices, dtype=int))
        if self._indices.size and (self._indices.min() < 0
                                   or self._indices.max() >= self._total):
            raise IndexError("subset indices outside the stored dataset")
        self._max_cached = int(max_cached_shards)
        self._cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._cache_order: List[int] = []
        # Per-sample shapes, read once from the first shard.
        first_seismic, first_velocity = self._load_chunk(0)
        self._seismic_shape = tuple(first_seismic.shape[1:])
        self._velocity_shape = tuple(first_velocity.shape[1:])

    # -- basic container protocol --------------------------------------- #
    def __len__(self) -> int:
        return int(self._indices.size)

    @property
    def seismic_sample_shape(self) -> Tuple[int, ...]:
        return self._seismic_shape

    @property
    def velocity_sample_shape(self) -> Tuple[int, ...]:
        return self._velocity_shape

    @property
    def record_every(self) -> int:
        """Time-step stride the stored gathers were recorded at (1 = every)."""
        return int(self._metadata.get("record_every", 1) or 1)

    @property
    def effective_dt(self) -> Optional[float]:
        """Seconds between stored trace samples (``dt * record_every``).

        ``None`` when the manifest predates time-axis metadata.
        """
        effective = self._metadata.get("effective_dt")
        if effective is not None:
            return float(effective)
        dt = self._metadata.get("dt")
        if dt is not None:
            return float(dt) * self.record_every
        return None

    def _load_chunk(self, chunk: int) -> Tuple[np.ndarray, np.ndarray]:
        telemetry = get_telemetry()
        if chunk in self._cache:
            if telemetry.enabled:
                telemetry.counter("store.lru.hits").inc()
            self._cache_order.remove(chunk)
            self._cache_order.append(chunk)
            return self._cache[chunk]
        if telemetry.enabled:
            telemetry.counter("store.lru.misses").inc()
        arrays = self._store.read_shard(self._fingerprint_key, int(chunk))
        self._cache[chunk] = arrays
        self._cache_order.append(chunk)
        while len(self._cache_order) > self._max_cached:
            evicted = self._cache_order.pop(0)
            del self._cache[evicted]
        return arrays

    def _sample(self, global_index: int) -> FWISample:
        chunk = int(np.searchsorted(self._starts, global_index,
                                    side="right") - 1)
        seismic, velocity = self._load_chunk(chunk)
        local = int(global_index - self._starts[chunk])
        return FWISample(seismic=seismic[local].copy(),
                         velocity=velocity[local].copy(),
                         metadata=dict(self._metadata))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.subset(np.arange(len(self))[index])
        return self._sample(int(self._indices[int(index)]))

    def __iter__(self) -> Iterator[FWISample]:
        for position in range(len(self)):
            yield self[position]

    def subset(self, indices: Sequence[int]) -> "ShardLoader":
        """A view over ``indices`` (positions in this loader's order)."""
        positions = np.asarray(indices, dtype=int)
        view = ShardLoader.__new__(ShardLoader)
        view.__dict__.update(self.__dict__)
        view._indices = self._indices[positions]
        return view

    # -- data-source protocol (training engine) -------------------------- #
    def gather(self, indices: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """Stack ``(flattened seismic, velocity)`` for the given positions.

        Loads only the shards the positions touch, one shard at a time —
        peak memory is one mini-batch plus the shard cache, never the whole
        dataset.
        """
        positions = np.asarray(indices, dtype=int).reshape(-1)
        global_idx = self._indices[positions]
        feature_size = int(np.prod(self._seismic_shape))
        seismic = np.empty((positions.size, feature_size), dtype=np.float64)
        velocity = np.empty((positions.size,) + self._velocity_shape,
                            dtype=np.float64)
        chunk_of = np.searchsorted(self._starts, global_idx, side="right") - 1
        for chunk in np.unique(chunk_of):
            rows = np.nonzero(chunk_of == chunk)[0]
            shard_seismic, shard_velocity = self._load_chunk(int(chunk))
            local = global_idx[rows] - self._starts[chunk]
            seismic[rows] = shard_seismic[local].reshape(rows.size, -1)
            velocity[rows] = shard_velocity[local]
        return seismic, velocity

    def fingerprint(self) -> Dict[str, object]:
        """Order-sensitive content fingerprint — computed from the manifest.

        Matches :func:`content_fingerprint` of the materialized arrays, so
        a checkpoint written while training from a ShardLoader resumes
        against the same data loaded any other way.
        """
        feature_size = int(np.prod(self._seismic_shape))
        return content_fingerprint(
            (len(self), feature_size),
            (len(self),) + self._velocity_shape,
            self._seismic_sums[self._indices],
            self._velocity_sums[self._indices])

    # -- materialization -------------------------------------------------- #
    def seismic_array(self) -> np.ndarray:
        """Stack every sample's seismic data (materializes the view)."""
        return np.stack([sample.seismic for sample in self])

    def velocity_array(self) -> np.ndarray:
        return np.stack([sample.velocity for sample in self])

    def materialize(self) -> FWIDataset:
        """An in-memory :class:`FWIDataset` copy of this view."""
        return FWIDataset(list(self), name=self.name)


# --------------------------------------------------------------------------- #
# parallel generation
# --------------------------------------------------------------------------- #
#: Chunk-retry and pool-respawn budget of a parallel build.
MAX_RETRIES = 2

#: Seconds between retry rounds of a parallel build, doubled per respawn
#: and capped at ten times this value.
RETRY_BACKOFF_S = 0.1


def _generate_chunk(payload) -> Tuple[int, int, np.ndarray, np.ndarray]:
    """Worker entry point: build one chunk from ``(config, seed, job)``.

    Top-level (picklable) and fully determined by its arguments, so the pool
    may execute chunks in any order on any worker and still reproduce the
    serial build bit-for-bit.
    """
    config, seed, chunk_index, start, count = payload
    generator = SyntheticOpenFWI(config, rng=seed)
    velocities, seismic = generator.build_chunk(chunk_index, count)
    return chunk_index, start, velocities, seismic


def _generate_chunks(config: OpenFWIConfig, seed: int,
                     jobs: Sequence[Tuple[int, int, int]], workers: int
                     ) -> Iterator[Tuple[int, int, np.ndarray, np.ndarray]]:
    """Yield ``(chunk_index, start, velocities, seismic)`` as pool chunks finish.

    Every chunk draws from its own ``SeedSequence(seed,
    spawn_key=(chunk_index,))`` stream, so the output is bit-identical to a
    serial build regardless of worker count or completion order.  Chunks
    complete out of order; the store keys shards by chunk index, so it does
    not care.

    Fault tolerance: chunks run on a
    :class:`concurrent.futures.ProcessPoolExecutor`, which (unlike
    ``multiprocessing.Pool``) detects a worker that dies mid-task.  A
    crashed worker breaks the pool; the pool is respawned and the
    unfinished chunks resubmitted.  A chunk that *raises* is retried
    individually.  Both budgets are :data:`MAX_RETRIES`, with
    :data:`RETRY_BACKOFF_S` seconds between rounds (doubled per respawn,
    capped at 10x).  Because every chunk is a pure function of
    ``(config, seed, chunk_index)``, a retried chunk reproduces exactly the
    bytes the crashed attempt would have written — recovery never changes
    the dataset.
    """
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else None)
    telemetry = get_telemetry()
    pending = {int(index): (config, seed, index, start, count)
               for index, start, count in jobs}
    attempts: Dict[int, int] = {}
    respawns = 0
    while pending:
        executor = concurrent.futures.ProcessPoolExecutor(
            max_workers=min(workers, len(pending)), mp_context=context)
        futures = {executor.submit(_generate_chunk, payload): chunk
                   for chunk, payload in pending.items()}
        try:
            for future in concurrent.futures.as_completed(futures):
                chunk = futures[future]
                try:
                    result = future.result()
                except concurrent.futures.BrokenExecutor:
                    raise
                except Exception as exc:
                    # The chunk itself raised; the pool is still healthy.
                    attempts[chunk] = attempts.get(chunk, 0) + 1
                    telemetry.counter("store.datagen.chunk_retries").inc()
                    if attempts[chunk] > MAX_RETRIES:
                        raise RuntimeError(
                            f"chunk {chunk} failed {attempts[chunk]} "
                            f"times, last error: {exc}") from exc
                    warnings.warn(
                        f"chunk {chunk} failed "
                        f"(attempt {attempts[chunk]}/{MAX_RETRIES}): "
                        f"{exc}; retrying", stacklevel=2)
                    continue
                pending.pop(chunk, None)
                yield result
        except concurrent.futures.BrokenExecutor:
            # A worker died (OOM-kill, segfault): the whole pool is
            # unusable.  Respawn and resubmit whatever has not completed —
            # chunk-seeded determinism makes the retried work bit-identical.
            respawns += 1
            telemetry.counter("store.datagen.pool_respawns").inc()
            if respawns > MAX_RETRIES:
                raise RuntimeError(
                    f"worker pool crashed {respawns} times; giving up "
                    f"with chunks {sorted(pending)} unfinished")
            warnings.warn(
                f"worker pool crashed (respawn "
                f"{respawns}/{MAX_RETRIES}); resubmitting chunks "
                f"{sorted(pending)}", stacklevel=2)
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
        if pending:
            sleep(min(RETRY_BACKOFF_S * (2 ** max(0, respawns - 1)),
                      RETRY_BACKOFF_S * 10.0))


# --------------------------------------------------------------------------- #
# high-level entry points
# --------------------------------------------------------------------------- #
def _as_store(store: Union[DatasetStore, PathLike]) -> DatasetStore:
    return store if isinstance(store, DatasetStore) else DatasetStore(store)


def build_dataset(generator: SyntheticOpenFWI,
                  count: Optional[int] = None,
                  store: Union[DatasetStore, PathLike, None] = None,
                  workers: Optional[int] = None,
                  stream: bool = False) -> Union[FWIDataset, ShardLoader]:
    """Build, resume or open a dataset, optionally persisting shards.

    This is the one chunk loop of dataset generation.  With a ``store``,
    an entry that already holds shards is validated first (every shard
    hashed once; failures quarantined), a complete entry is then served
    with zero forward-modelling calls, and otherwise only the missing
    chunks are generated — an interrupted build resumes from exactly those.
    With ``workers > 1`` and more than one missing chunk the chunks fan out
    over a process pool; otherwise ``generator.build_chunk`` runs them
    in-process.  The result is bit-identical either way.
    """
    config = generator.config
    count = count or config.n_samples
    layout = chunk_layout(count, config.chunk_size)
    fingerprint = dataset_fingerprint(config, generator.seed, n_samples=count)
    metadata = generator._sample_metadata()

    dataset_store = manifest = None
    if store is not None:
        dataset_store = _as_store(store)
        manifest = dataset_store.init_manifest(
            fingerprint, n_samples=count, chunk_size=config.chunk_size,
            name=generator.dataset_name(), config=config,
            seed=generator.seed, metadata=metadata)
        if manifest["shards"]:
            # A torn, truncated or corrupt shard (from an interrupted build
            # or later damage) is quarantined here, which shrinks the
            # repair to exactly that chunk.
            dataset_store.validate_entry(fingerprint, manifest=manifest)
        if manifest.get("complete"):
            return dataset_store.load(fingerprint, stream=stream)
        missing = [job for job in layout
                   if str(job[0]) not in manifest["shards"]]
    else:
        missing = list(layout)

    if workers is None or workers <= 1 or len(missing) <= 1:
        results = ((index, start, *generator.build_chunk(index, size))
                   for index, start, size in missing)
    else:
        results = _generate_chunks(config, generator.seed, missing,
                                   int(workers))
    chunks: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    telemetry = get_telemetry()
    timing = telemetry.enabled
    if timing and missing:
        telemetry.counter("store.datagen.chunks").inc(len(missing))
    last = perf_counter()
    for chunk_index, start, velocities, seismic in results:
        if timing:
            # Wall time between completed chunks as seen by the consumer —
            # with a worker pool this measures throughput, not worker time.
            now = perf_counter()
            telemetry.record_timer("store.datagen.chunk", now - last)
            last = now
        if dataset_store is not None:
            dataset_store.write_shard(fingerprint, manifest, chunk_index,
                                      start, seismic, velocities)
        else:
            chunks[chunk_index] = (velocities, seismic)

    if dataset_store is not None:
        dataset_store.finalize(fingerprint, manifest)
        return dataset_store.load(fingerprint, stream=stream)

    samples: List[FWISample] = []
    for chunk_index, _, _ in layout:
        velocities, seismic = chunks[chunk_index]
        for velocity, gather in zip(velocities, seismic):
            samples.append(FWISample(seismic=gather, velocity=velocity,
                                     metadata=dict(metadata)))
    return FWIDataset(samples, name=generator.dataset_name())


def open_or_build(config: OpenFWIConfig, seed: int,
                  cache_dir: PathLike,
                  count: Optional[int] = None,
                  workers: Optional[int] = None,
                  stream: bool = False) -> Union[FWIDataset, ShardLoader]:
    """Serve the dataset from ``cache_dir``, building only what is missing.

    A complete cache entry is a pure hit: its shards are verified against
    their checksums and read back, with zero forward-modelling calls.  A
    partial or damaged entry resumes from its missing chunks; an absent one
    is built from scratch (optionally in parallel).  ``stream=True``
    returns a :class:`ShardLoader` instead of materializing every sample.
    """
    return build_dataset(SyntheticOpenFWI(config, rng=int(seed)),
                         count=count, store=cache_dir, workers=workers,
                         stream=stream)
