"""Tests for the fault-tolerance layer: injected faults, retry, quarantine.

Exercises the recovery paths of dataset generation and the sharded store:

* a chunk that *raises* in a worker is retried (bounded by
  ``repro.data.store.MAX_RETRIES``) and the finished dataset is
  bit-identical to a serial build;
* a worker *killed* mid-chunk breaks the pool, which is respawned, and the
  dataset is again bit-identical;
* shard corruption (flipped bytes, truncation, deletion, a record without
  its checksum) is caught by checksum validation, the bad shard is
  quarantined, and exactly the missing chunks are regenerated on the next
  open.

Faults are injected by patching ``repro.data.store._generate_chunk``, the
pool's worker entry point, with :func:`_fail_once`.  The pool forks its
workers, so they run the patch; the in-process serial build never calls it.
"""

import functools
import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.data import (
    DatasetStore,
    OpenFWIConfig,
    SyntheticOpenFWI,
    dataset_fingerprint,
    open_or_build,
)
from repro.data import store as store_module
from repro.data.store import QUARANTINE_DIR, ShardIntegrityError

_generate_chunk = store_module._generate_chunk

requires_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="pool workers run a patched entry point only under fork")


def small_config(**overrides) -> OpenFWIConfig:
    defaults = dict(n_samples=8, velocity_shape=(16, 16), n_sources=1,
                    n_receivers=16, n_time_steps=40, dx=700.0 / 16,
                    boundary_width=4, chunk_size=2)
    defaults.update(overrides)
    return OpenFWIConfig(**defaults)


def _fail_once(action, target, marker, payload):
    """Pool entry point that fails chunk ``target`` once, then builds it.

    The marker file is created exclusively before the fault fires, so the
    fault fires once across retries and pool respawns.  ``action`` is
    ``"kill"`` (SIGKILL the worker) or ``"raise"``.
    """
    if payload[2] == target:
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            pass
        else:
            os.close(fd)
            if action == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError(f"injected failure in chunk {target}")
    return _generate_chunk(payload)


@pytest.fixture()
def inject(monkeypatch):
    """Patch the pool entry point to fail one chunk once; fast backoff."""
    monkeypatch.setattr(store_module, "RETRY_BACKOFF_S", 0.01)

    def install(action, target, marker):
        monkeypatch.setattr(store_module, "_generate_chunk",
                            functools.partial(_fail_once, action, target,
                                              str(marker)))
    return install


@requires_fork
class TestChaosInjection:
    def test_raise_once_is_retried_bit_identical(self, tmp_path, inject):
        config = small_config()
        serial = SyntheticOpenFWI(config, rng=0).build()
        marker = tmp_path / "raise.marker"
        inject("raise", 1, marker)
        with pytest.warns(UserWarning, match="retrying"):
            parallel = SyntheticOpenFWI(config, rng=0).build(workers=2)
        assert marker.exists()  # the fault actually fired
        np.testing.assert_array_equal(parallel.seismic_array(),
                                      serial.seismic_array())
        np.testing.assert_array_equal(parallel.velocity_array(),
                                      serial.velocity_array())

    def test_killed_worker_respawns_pool_bit_identical(self, tmp_path,
                                                       inject):
        config = small_config()
        serial = SyntheticOpenFWI(config, rng=0).build()
        marker = tmp_path / "kill.marker"
        inject("kill", 2, marker)
        with pytest.warns(UserWarning, match="respawn"):
            parallel = SyntheticOpenFWI(config, rng=0).build(workers=2)
        assert marker.exists()
        np.testing.assert_array_equal(parallel.seismic_array(),
                                      serial.seismic_array())
        np.testing.assert_array_equal(parallel.velocity_array(),
                                      serial.velocity_array())

    def test_retry_budget_exhaustion_raises(self, tmp_path, monkeypatch,
                                            inject):
        # Budget 0 turns the single injected failure into exhaustion.
        inject("raise", 0, tmp_path / "once.marker")
        monkeypatch.setattr(store_module, "MAX_RETRIES", 0)
        with pytest.raises(RuntimeError, match="chunk 0 failed"):
            SyntheticOpenFWI(small_config(), rng=0).build(workers=2)


class TestShardCorruptionRecovery:
    def _built_store(self, tmp_path):
        config = small_config()
        fingerprint = dataset_fingerprint(config, 0)
        open_or_build(config, seed=0, cache_dir=tmp_path)
        return config, DatasetStore(tmp_path), fingerprint

    def test_validate_entry_passes_on_healthy_store(self, tmp_path):
        _, store, fingerprint = self._built_store(tmp_path)
        assert store.validate_entry(fingerprint) == []
        assert store.read_manifest(fingerprint)["complete"]

    def test_flipped_bytes_detected_and_quarantined(self, tmp_path):
        _, store, fingerprint = self._built_store(tmp_path)
        shard = store.shard_path(fingerprint, 1)
        payload = bytearray(shard.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        shard.write_bytes(bytes(payload))
        with pytest.warns(UserWarning, match="checksum mismatch"):
            bad = store.validate_entry(fingerprint)
        assert bad == [1]
        assert not shard.exists()
        quarantined = store.entry_dir(fingerprint) / QUARANTINE_DIR
        assert (quarantined / shard.name).exists()
        assert not store.read_manifest(fingerprint)["complete"]

    def test_corrupt_shard_is_rebuilt_on_open(self, tmp_path):
        config, store, fingerprint = self._built_store(tmp_path)
        reference = open_or_build(config, seed=0, cache_dir=tmp_path)
        shard = store.shard_path(fingerprint, 2)
        shard.write_bytes(b"not a shard at all")
        with pytest.warns(UserWarning, match="checksum mismatch"):
            rebuilt = open_or_build(config, seed=0, cache_dir=tmp_path)
        np.testing.assert_array_equal(rebuilt.seismic_array(),
                                      reference.seismic_array())
        np.testing.assert_array_equal(rebuilt.velocity_array(),
                                      reference.velocity_array())
        assert store.read_manifest(fingerprint)["complete"]
        assert store.validate_entry(fingerprint) == []

    def test_missing_shard_is_rebuilt_on_open(self, tmp_path):
        config, store, fingerprint = self._built_store(tmp_path)
        reference = open_or_build(config, seed=0, cache_dir=tmp_path)
        os.unlink(store.shard_path(fingerprint, 0))
        with pytest.warns(UserWarning, match="file missing"):
            rebuilt = open_or_build(config, seed=0, cache_dir=tmp_path)
        np.testing.assert_array_equal(rebuilt.seismic_array(),
                                      reference.seismic_array())

    def test_record_without_checksum_is_rebuilt(self, tmp_path,
                                                counting_forward):
        config, store, fingerprint = self._built_store(tmp_path)
        reference = store.load(fingerprint)
        manifest = store.read_manifest(fingerprint)
        del manifest["shards"]["1"]["sha256"]
        store.write_manifest(fingerprint, manifest)
        counting_forward["calls"] = 0
        with pytest.warns(UserWarning,
                          match="shard 1: no checksum in manifest"):
            rebuilt = open_or_build(config, seed=0, cache_dir=tmp_path)
        assert counting_forward["calls"] == 1
        shard = store.shard_path(fingerprint, 1)
        assert (store.entry_dir(fingerprint) / QUARANTINE_DIR
                / shard.name).exists()
        assert "sha256" in store.read_manifest(fingerprint)["shards"]["1"]
        np.testing.assert_array_equal(rebuilt.seismic_array(),
                                      reference.seismic_array())
        np.testing.assert_array_equal(rebuilt.velocity_array(),
                                      reference.velocity_array())

    def test_read_shard_raises_typed_error_on_garbage(self, tmp_path):
        _, store, fingerprint = self._built_store(tmp_path)
        shard = store.shard_path(fingerprint, 0)
        shard.write_bytes(b"\x00" * 64)
        with pytest.raises(ShardIntegrityError):
            store.read_shard(fingerprint, 0)
