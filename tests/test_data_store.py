"""Tests for the sharded dataset store and parallel generation."""

import hashlib
import json
import pickle
import zipfile

import numpy as np
import pytest

from repro.core.training import ArrayDataSource, Trainer, predict_in_batches
from repro.data import (
    DatasetStore,
    FWIDataset,
    OpenFWIConfig,
    ShardLoader,
    SyntheticOpenFWI,
    chunk_layout,
    dataset_fingerprint,
    open_or_build,
    train_test_split,
)
from repro.data.store import (
    DATA_FORMAT_VERSION,
    QUARANTINE_DIR,
    ShardIntegrityError,
    content_fingerprint,
)
from repro.seismic.acoustic2d import SimulationConfig
from repro.seismic.boundary import SpongeBoundary
from repro.seismic.survey import SurveyGeometry
from repro.seismic.velocity_models import VelocityModelConfig


def store_dataset(dataset, root, key, chunk_size):
    """Write ``dataset`` as a complete store entry under ``key``."""
    store = DatasetStore(root)
    manifest = store.init_manifest(key, n_samples=len(dataset),
                                   chunk_size=chunk_size, name=dataset.name,
                                   metadata=dataset[0].metadata)
    seismic, velocity = dataset.seismic_array(), dataset.velocity_array()
    for chunk_index, start, size in chunk_layout(len(dataset), chunk_size):
        store.write_shard(key, manifest, chunk_index, start,
                          seismic[start:start + size],
                          velocity[start:start + size])
    store.finalize(key, manifest)
    return store


def small_config(**overrides) -> OpenFWIConfig:
    defaults = dict(n_samples=10, velocity_shape=(16, 16), n_sources=2,
                    n_receivers=16, n_time_steps=40, dx=700.0 / 16,
                    boundary_width=4, chunk_size=3)
    defaults.update(overrides)
    return OpenFWIConfig(**defaults)


class TestChunkLayout:
    def test_partition_covers_total(self):
        layout = chunk_layout(10, 3)
        assert layout == [(0, 0, 3), (1, 3, 3), (2, 6, 3), (3, 9, 1)]

    def test_prefix_stability(self):
        """A shorter build shares its chunk layout with a longer one."""
        assert chunk_layout(6, 3) == chunk_layout(10, 3)[:2]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            chunk_layout(0, 3)
        with pytest.raises(ValueError):
            chunk_layout(5, 0)


class TestFingerprint:
    def test_stable_across_instances(self):
        assert (dataset_fingerprint(small_config(), 7)
                == dataset_fingerprint(small_config(), 7))

    def test_changes_with_seed(self):
        assert (dataset_fingerprint(small_config(), 7)
                != dataset_fingerprint(small_config(), 8))

    def test_changes_with_config(self):
        base = dataset_fingerprint(small_config(), 7)
        assert dataset_fingerprint(small_config(peak_frequency=10.0), 7) != base
        assert dataset_fingerprint(small_config(chunk_size=5), 7) != base
        assert dataset_fingerprint(small_config(n_time_steps=50), 7) != base

    def test_changes_with_sample_count(self):
        base = dataset_fingerprint(small_config(), 7)
        assert dataset_fingerprint(small_config(), 7, n_samples=4) != base

    def test_pinned_default_fingerprints(self):
        # Cached shards live under these addresses.  Moving them orphans
        # every cache, so it must be deliberate: a DATA_FORMAT_VERSION bump.
        assert dataset_fingerprint(small_config(), 7) == "963ae891b34f7b14"

    def test_default_boundary_kernel_stride_leave_fingerprint_unchanged(self):
        # The bit-identity-preserving defaults must hash exactly like configs
        # minted before the fields existed, so cached shards stay addressable.
        base = dataset_fingerprint(small_config(), 7)
        assert dataset_fingerprint(small_config(boundary="sponge"), 7) == base
        assert dataset_fingerprint(small_config(record_every=1), 7) == base

    def test_changes_with_boundary_and_record_every(self):
        # The sponge is the only boundary: any other kind fails at config
        # time instead of minting a fingerprint.
        for kind in ("pml", "mirror"):
            with pytest.raises(ValueError, match="unknown boundary"):
                small_config(boundary=kind)
        base = dataset_fingerprint(small_config(), 7)
        assert dataset_fingerprint(small_config(record_every=4), 7) != base

    STALE_ENV = {"QUGEO_SEISMIC_KERNEL": "numba",
                 "QUGEO_PROPAGATOR": "scalar",
                 "QUGEO_SEISMIC_BOUNDARY": "pml",
                 "QUGEO_DTYPE": "float32"}

    def test_unavailable_kernel_env_keeps_default_fingerprint(
            self, monkeypatch):
        # QUGEO_PROPAGATOR, QUGEO_SEISMIC_KERNEL, QUGEO_SEISMIC_BOUNDARY and
        # QUGEO_DTYPE select nothing; a shell that still exports them must
        # keep the same cache address.
        for name, value in self.STALE_ENV.items():
            monkeypatch.setenv(name, value)
        assert dataset_fingerprint(small_config(), 7) == "963ae891b34f7b14"

    def test_stale_env_builds_the_data_its_fingerprint_names(
            self, monkeypatch):
        """The fingerprint promises bit-identical data, so a build under the
        stale variables must equal the build without them."""
        config = small_config(n_samples=2, chunk_size=2)
        for name, value in self.STALE_ENV.items():
            monkeypatch.setenv(name, value)
        stale = SyntheticOpenFWI(config, rng=7).build()
        for name in self.STALE_ENV:
            monkeypatch.delenv(name)
        clean = SyntheticOpenFWI(config, rng=7).build()
        for got, want in zip(stale, clean):
            np.testing.assert_array_equal(got.seismic, want.seismic)
            np.testing.assert_array_equal(got.velocity, want.velocity)
            assert got.seismic.dtype == want.seismic.dtype == np.float64

    def test_content_fingerprint_is_order_sensitive(self):
        sums = np.array([1.0, 2.0, 3.0])
        vsums = np.array([4.0, 5.0, 6.0])
        forward = content_fingerprint((3, 8), (3, 2, 2), sums, vsums)
        backward = content_fingerprint((3, 8), (3, 2, 2), sums[::-1],
                                       vsums[::-1])
        assert forward != backward
        assert forward["seismic_sum"] == backward["seismic_sum"]


class TestConfigPickleStability:
    """Generation configs ship to multiprocessing workers — they must pickle."""

    @pytest.mark.parametrize("config", [
        small_config(),
        VelocityModelConfig(shape=(16, 16)),
        SimulationConfig(dx=10.0, dz=10.0, dt=0.001, n_steps=10,
                         boundary=SpongeBoundary(width=4)),
        SurveyGeometry(n_sources=2, n_receivers=8, nx=16),
        SpongeBoundary(width=4),
    ])
    def test_round_trip(self, config):
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config

    def test_survey_explicit_flags_survive_pickle(self):
        survey = SurveyGeometry(n_sources=2, n_receivers=8, nx=16,
                                source_columns=[2, 9])
        clone = pickle.loads(pickle.dumps(survey))
        assert clone.explicit_source_columns
        assert not clone.explicit_receiver_columns


class TestStoreRoundTrip:
    def test_shard_round_trip_equality(self, tmp_path):
        config = small_config()
        serial = SyntheticOpenFWI(config, rng=5).build()
        built = open_or_build(config, seed=5, cache_dir=tmp_path)
        np.testing.assert_array_equal(built.seismic_array(),
                                      serial.seismic_array())
        np.testing.assert_array_equal(built.velocity_array(),
                                      serial.velocity_array())
        assert built[0].metadata["family"] == "flat"

    def test_cache_hit_runs_zero_forward_calls(self, tmp_path,
                                               counting_forward):
        config = small_config()
        first = open_or_build(config, seed=5, cache_dir=tmp_path)
        assert counting_forward["calls"] > 0
        counting_forward["calls"] = 0
        second = open_or_build(config, seed=5, cache_dir=tmp_path)
        assert counting_forward["calls"] == 0
        np.testing.assert_array_equal(first.seismic_array(),
                                      second.seismic_array())
        np.testing.assert_array_equal(first.velocity_array(),
                                      second.velocity_array())

    def test_different_seed_is_a_different_entry(self, tmp_path):
        config = small_config(n_samples=4, chunk_size=2)
        a = open_or_build(config, seed=1, cache_dir=tmp_path)
        b = open_or_build(config, seed=2, cache_dir=tmp_path)
        fingerprints = {dataset_fingerprint(config, seed) for seed in (1, 2)}
        assert len(fingerprints) == 2
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            fingerprints)
        assert not np.array_equal(a.velocity_array(), b.velocity_array())

    def test_save_and_load_generic_dataset(self, tmp_path):
        dataset = SyntheticOpenFWI(small_config(n_samples=4, chunk_size=2),
                                   rng=3).build()
        store = store_dataset(dataset, tmp_path, "generic", chunk_size=3)
        loaded = store.load("generic")
        np.testing.assert_array_equal(loaded.seismic_array(),
                                      dataset.seismic_array())
        np.testing.assert_array_equal(loaded.velocity_array(),
                                      dataset.velocity_array())

    def test_load_incomplete_entry_raises(self, tmp_path):
        config = small_config()
        store = DatasetStore(tmp_path)
        fingerprint = dataset_fingerprint(config, 5)
        generator = SyntheticOpenFWI(config, rng=5)
        manifest = store.init_manifest(fingerprint,
                                       n_samples=config.n_samples,
                                       chunk_size=config.chunk_size)
        velocities, seismic = generator.build_chunk(0, 3)
        store.write_shard(fingerprint, manifest, 0, 0, seismic, velocities)
        with pytest.raises(ValueError, match="incomplete"):
            store.load(fingerprint)

    @staticmethod
    def _fresh_entry(tmp_path):
        """An empty store entry plus the first generated chunk."""
        config = small_config()
        store = DatasetStore(tmp_path)
        fingerprint = dataset_fingerprint(config, 5)
        manifest = store.init_manifest(fingerprint,
                                       n_samples=config.n_samples,
                                       chunk_size=config.chunk_size)
        velocities, seismic = SyntheticOpenFWI(config, rng=5).build_chunk(0, 3)
        return store, fingerprint, manifest, {"seismic": seismic,
                                              "velocity": velocities}

    @pytest.mark.parametrize("field", ["seismic", "velocity"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_chunk_is_refused(self, tmp_path, field, bad):
        store, fingerprint, manifest, chunk = self._fresh_entry(tmp_path)
        manifest_before = store.manifest_path(fingerprint).read_bytes()
        chunk[field][1].flat[7] = bad
        with pytest.raises(ValueError, match=f"{field} holds NaN or inf"):
            store.write_shard(fingerprint, manifest, 0, 0,
                              chunk["seismic"], chunk["velocity"])
        assert not store.shard_path(fingerprint, 0).exists()
        assert manifest["shards"] == {}
        assert store.manifest_path(fingerprint).read_bytes() == manifest_before

    def test_finite_chunk_writes_and_verifies(self, tmp_path):
        store, fingerprint, manifest, chunk = self._fresh_entry(tmp_path)
        record = store.write_shard(fingerprint, manifest, 0, 0,
                                   chunk["seismic"], chunk["velocity"])
        assert store.verify_shard(fingerprint, 0, record) is None
        assert store.read_manifest(fingerprint)["shards"]["0"] == record

    def test_format_version_mismatch_rejected(self, tmp_path):
        config = small_config(n_samples=4, chunk_size=2)
        open_or_build(config, seed=5, cache_dir=tmp_path)
        store = DatasetStore(tmp_path)
        fingerprint = dataset_fingerprint(config, 5)
        path = store.manifest_path(fingerprint)
        manifest = json.loads(path.read_text())
        manifest["format_version"] = DATA_FORMAT_VERSION + 1
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="format version"):
            store.read_manifest(fingerprint)


class TestShardCodec:
    """Shards are stored uncompressed; deflated shards stay readable."""

    @staticmethod
    def _built_entry(tmp_path):
        config = small_config()  # 10 samples in chunks of 3 -> 4 shards
        open_or_build(config, seed=9, cache_dir=tmp_path)
        serial = SyntheticOpenFWI(config, rng=9).build()
        return config, DatasetStore(tmp_path), dataset_fingerprint(config, 9), serial

    def test_shard_members_are_stored(self, tmp_path):
        _, store, fingerprint, _ = self._built_entry(tmp_path)
        with zipfile.ZipFile(store.shard_path(fingerprint, 0)) as archive:
            members = archive.infolist()
        assert sorted(m.filename for m in members) == ["seismic.npy",
                                                       "velocity.npy"]
        assert all(m.compress_type == zipfile.ZIP_STORED for m in members)

    def test_deflated_legacy_entry_serves_bit_identically(self, tmp_path,
                                                         counting_forward):
        config, store, fingerprint, serial = self._built_entry(tmp_path)
        # Rewrite every shard the way older releases wrote them: deflated,
        # with the manifest's sha256 certifying the deflated bytes.
        manifest = store.read_manifest(fingerprint)
        for key, record in manifest["shards"].items():
            path = store.shard_path(fingerprint, int(key))
            with np.load(str(path)) as data:
                seismic, velocity = data["seismic"], data["velocity"]
            with open(str(path), "wb") as handle:
                np.savez_compressed(handle, seismic=seismic, velocity=velocity)
            record["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
            with zipfile.ZipFile(path) as archive:
                assert all(m.compress_type == zipfile.ZIP_DEFLATED
                           for m in archive.infolist())
        store.write_manifest(fingerprint, manifest)

        counting_forward["calls"] = 0
        served = open_or_build(config, seed=9, cache_dir=tmp_path)
        assert counting_forward["calls"] == 0
        assert store.validate_entry(fingerprint) == []
        np.testing.assert_array_equal(served.seismic_array(),
                                      serial.seismic_array())
        np.testing.assert_array_equal(served.velocity_array(),
                                      serial.velocity_array())

    def test_flipped_payload_byte_is_caught(self, tmp_path,
                                            counting_forward):
        config, store, fingerprint, serial = self._built_entry(tmp_path)
        record = store.read_manifest(fingerprint)["shards"]["1"]
        path = store.shard_path(fingerprint, 1)
        original_seismic, original_velocity = store.read_shard(fingerprint, 1)
        raw = bytearray(path.read_bytes())
        # A stored member holds the array bytes verbatim.
        payload = original_seismic.tobytes()
        offset = bytes(raw).find(payload)
        assert offset > 0
        raw[offset + len(payload) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))

        assert "checksum mismatch" in store.verify_shard(fingerprint, 1,
                                                         record)
        # read_shard hashes nothing; the zip CRC-32 alone catches it.
        with pytest.raises(ShardIntegrityError, match="CRC"):
            store.read_shard(fingerprint, 1)

        counting_forward["calls"] = 0
        with pytest.warns(UserWarning, match="shard 1: checksum mismatch"):
            repaired = open_or_build(config, seed=9, cache_dir=tmp_path)
        assert counting_forward["calls"] == 1
        assert (store.entry_dir(fingerprint) / QUARANTINE_DIR
                / path.name).exists()
        seismic, velocity = store.read_shard(fingerprint, 1)
        np.testing.assert_array_equal(seismic, original_seismic)
        np.testing.assert_array_equal(velocity, original_velocity)
        np.testing.assert_array_equal(repaired.seismic_array(),
                                      serial.seismic_array())


class TestResume:
    def test_resume_after_partial_build(self, tmp_path, counting_forward):
        config = small_config()  # 10 samples in chunks of 3 -> 4 chunks
        serial = SyntheticOpenFWI(config, rng=9).build()
        store = DatasetStore(tmp_path)
        fingerprint = dataset_fingerprint(config, 9)
        generator = SyntheticOpenFWI(config, rng=9)
        manifest = store.init_manifest(fingerprint,
                                       n_samples=config.n_samples,
                                       chunk_size=config.chunk_size,
                                       config=config, seed=9,
                                       metadata=generator._sample_metadata())
        # Simulate an interrupted build: only chunks 0 and 2 were persisted.
        for chunk_index, start, count in [(0, 0, 3), (2, 6, 3)]:
            velocities, seismic = generator.build_chunk(chunk_index, count)
            store.write_shard(fingerprint, manifest, chunk_index, start,
                              seismic, velocities)
        assert not store.read_manifest(fingerprint)["complete"]

        counting_forward["calls"] = 0
        resumed = open_or_build(config, seed=9, cache_dir=tmp_path)
        # Only the two missing chunks were generated.
        assert counting_forward["calls"] == 2
        assert store.read_manifest(fingerprint)["complete"]
        np.testing.assert_array_equal(resumed.seismic_array(),
                                      serial.seismic_array())
        np.testing.assert_array_equal(resumed.velocity_array(),
                                      serial.velocity_array())

    def test_resume_rebuilds_only_truncated_shard(self, tmp_path,
                                                  counting_forward):
        """Regression: a shard truncated mid-write (torn copy, full disk)
        must be detected on resume and only that chunk regenerated."""
        config = small_config()  # 10 samples in chunks of 3 -> 4 chunks
        serial = SyntheticOpenFWI(config, rng=9).build()
        store = DatasetStore(tmp_path)
        fingerprint = dataset_fingerprint(config, 9)
        open_or_build(config, seed=9, cache_dir=tmp_path)
        assert store.read_manifest(fingerprint)["complete"]

        shard = store.shard_path(fingerprint, 1)
        shard.write_bytes(shard.read_bytes()[: shard.stat().st_size // 2])

        counting_forward["calls"] = 0
        with pytest.warns(UserWarning, match="checksum mismatch"):
            resumed = open_or_build(config, seed=9, cache_dir=tmp_path)
        # Only the truncated chunk was regenerated, and the repaired entry
        # is bit-identical to an uninterrupted serial build.
        assert counting_forward["calls"] == 1
        assert store.read_manifest(fingerprint)["complete"]
        assert store.validate_entry(fingerprint) == []
        np.testing.assert_array_equal(resumed.seismic_array(),
                                      serial.seismic_array())
        np.testing.assert_array_equal(resumed.velocity_array(),
                                      serial.velocity_array())

    def test_finalize_refuses_missing_chunks(self, tmp_path):
        config = small_config()
        store = DatasetStore(tmp_path)
        fingerprint = dataset_fingerprint(config, 9)
        manifest = store.init_manifest(fingerprint,
                                       n_samples=config.n_samples,
                                       chunk_size=config.chunk_size)
        with pytest.raises(ValueError, match="missing chunks"):
            store.finalize(fingerprint, manifest)


class TestParallelGeneration:
    def test_parallel_matches_serial_bit_for_bit(self):
        config = small_config()
        serial = SyntheticOpenFWI(config, rng=21).build()
        parallel = SyntheticOpenFWI(config, rng=21).build(workers=2)
        np.testing.assert_array_equal(serial.seismic_array(),
                                      parallel.seismic_array())
        np.testing.assert_array_equal(serial.velocity_array(),
                                      parallel.velocity_array())

    def test_parallel_store_build_matches_serial(self, tmp_path):
        config = small_config()
        serial = SyntheticOpenFWI(config, rng=21).build()
        stored = open_or_build(config, seed=21, cache_dir=tmp_path, workers=2)
        np.testing.assert_array_equal(serial.seismic_array(),
                                      stored.seismic_array())

    def test_parallel_generator_default_entry_point(self):
        """One chunk per worker: each pool process builds a single chunk."""
        config = small_config(n_samples=4, chunk_size=2)
        serial = SyntheticOpenFWI(config, rng=2).build()
        parallel = SyntheticOpenFWI(config, rng=2).build(workers=2)
        np.testing.assert_array_equal(serial.seismic_array(),
                                      parallel.seismic_array())

    def test_chunk_streams_are_execution_order_independent(self):
        generator = SyntheticOpenFWI(small_config(), rng=13)
        late_first = generator.build_chunk(2, 3)
        early = generator.build_chunk(0, 3)
        again = SyntheticOpenFWI(small_config(), rng=13)
        np.testing.assert_array_equal(again.build_chunk(2, 3)[0],
                                      late_first[0])
        np.testing.assert_array_equal(again.build_chunk(0, 3)[0], early[0])


class TestShardLoader:
    @pytest.fixture()
    def stored(self, tmp_path):
        config = small_config()
        dataset = open_or_build(config, seed=4, cache_dir=tmp_path)
        loader = open_or_build(config, seed=4, cache_dir=tmp_path,
                               stream=True)
        return dataset, loader

    def test_len_iteration_and_indexing(self, stored):
        dataset, loader = stored
        assert isinstance(loader, ShardLoader)
        assert len(loader) == len(dataset)
        np.testing.assert_array_equal(loader[3].seismic, dataset[3].seismic)
        stacked = np.stack([sample.velocity for sample in loader])
        np.testing.assert_array_equal(stacked, dataset.velocity_array())

    def test_gather_matches_materialized(self, stored):
        dataset, loader = stored
        indices = np.array([7, 0, 5, 5])
        seismic, velocity = loader.gather(indices)
        expected = np.stack([dataset[i].seismic.reshape(-1) for i in indices])
        np.testing.assert_array_equal(seismic, expected)
        np.testing.assert_array_equal(
            velocity, np.stack([dataset[i].velocity for i in indices]))

    def test_fingerprint_matches_array_source(self, stored):
        dataset, loader = stored
        source = ArrayDataSource(
            np.stack([s.seismic.reshape(-1) for s in dataset]),
            dataset.velocity_array())
        assert loader.fingerprint() == source.fingerprint()

    def test_subset_and_split(self, stored):
        dataset, loader = stored
        train, test = train_test_split(loader, train_size=7, rng=0)
        train_arrays, _ = train.gather(np.arange(len(train)))
        assert train_arrays.shape[0] == 7
        assert len(test) == 3
        # The same split of the materialized dataset selects the same rows.
        mat_train, _ = train_test_split(dataset, train_size=7, rng=0)
        np.testing.assert_array_equal(
            train_arrays,
            np.stack([s.seismic.reshape(-1) for s in mat_train]))

    def test_bounded_shard_cache(self, tmp_path):
        config = small_config()
        open_or_build(config, seed=4, cache_dir=tmp_path)
        loader = ShardLoader(DatasetStore(tmp_path),
                             dataset_fingerprint(config, 4),
                             max_cached_shards=1)
        loader.gather(np.arange(len(loader)))
        assert len(loader._cache) == 1

    def test_surfaces_time_axis_metadata(self, stored):
        dataset, loader = stored
        assert loader.record_every == 1
        dt = loader._metadata["dt"]
        assert loader.effective_dt == pytest.approx(dt)

    def test_effective_dt_reflects_record_stride(self, tmp_path):
        config = small_config(record_every=4)
        loader = open_or_build(config, seed=4, cache_dir=tmp_path,
                               stream=True)
        assert loader.record_every == 4
        assert loader.effective_dt == pytest.approx(
            loader._metadata["dt"] * 4)
        assert loader.seismic_sample_shape[1] == 10  # ceil(40 / 4)

    def test_effective_dt_none_for_legacy_manifests(self, stored):
        _, loader = stored
        legacy = loader.subset(np.arange(len(loader)))
        legacy._metadata = {k: v for k, v in loader._metadata.items()
                            if k not in ("dt", "effective_dt",
                                         "record_every")}
        assert legacy.record_every == 1
        assert legacy.effective_dt is None

    def test_predict_in_batches_streams(self, stored):
        dataset, loader = stored

        class EchoModel:
            def predict_batch(self, block):
                return np.asarray(block)[:, :4]

        streamed = predict_in_batches(EchoModel(), loader, batch_size=3)
        stacked = np.stack([s.seismic.reshape(-1) for s in dataset])
        np.testing.assert_array_equal(streamed, stacked[:, :4])


class TestTrainerIntegration:
    def test_training_from_shard_loader_matches_in_memory(self, tmp_path,
                                                          tiny_scaled_dataset):
        from repro.core.classical_models import build_cnn_ly
        from repro.core.config import TrainingConfig

        scaled = tiny_scaled_dataset
        store = store_dataset(FWIDataset(list(scaled), name="scaled"),
                              tmp_path, "scaled-tiny", chunk_size=2)
        loader = store.load("scaled-tiny", stream=True)

        def run(dataset):
            model = build_cnn_ly(int(np.prod(scaled[0].seismic.shape)),
                                 scaled[0].velocity.shape, rng=0)
            trainer = Trainer(TrainingConfig(epochs=2, batch_size=2, seed=0))
            outcome = trainer.train(model, dataset)
            return model.state_dict(), outcome.final_metrics

        memory_state, memory_metrics = run(scaled)
        loader_state, loader_metrics = run(loader)
        assert memory_metrics == loader_metrics
        for name in memory_state:
            np.testing.assert_array_equal(memory_state[name],
                                          loader_state[name])


class TestStoreTelemetry:
    def test_cache_hit_records_zero_forward_model_spans(self, tmp_path):
        from repro.telemetry import capture

        config = small_config(n_samples=4, chunk_size=2)
        open_or_build(config, seed=5, cache_dir=tmp_path)  # cold build
        with capture("summary") as telemetry:
            open_or_build(config, seed=5, cache_dir=tmp_path)  # pure hit
            snapshot = telemetry.snapshot()
        assert not any("forward_model" in path for path in snapshot["spans"])
        assert "forward_model.calls" not in snapshot["counters"]
        # The hit is served from shards, which the registry does see.
        assert snapshot["counters"]["store.shard_reads"] > 0
        assert snapshot["counters"]["store.bytes_read"] > 0

    def test_cold_build_records_forward_model_and_writes(self, tmp_path):
        from repro.telemetry import capture

        config = small_config(n_samples=4, chunk_size=2)
        with capture("summary") as telemetry:
            open_or_build(config, seed=5, cache_dir=tmp_path)
            snapshot = telemetry.snapshot()
        assert snapshot["counters"]["forward_model.calls"] > 0
        assert snapshot["counters"]["store.shard_writes"] == 2
        assert snapshot["counters"]["store.datagen.chunks"] == 2
        assert snapshot["timers"]["store.datagen.chunk"]["count"] == 2

    def test_warm_shard_loader_reports_lru_hits(self, tmp_path):
        from repro.telemetry import capture

        config = small_config()  # 10 samples in chunks of 3 -> 4 shards
        open_or_build(config, seed=4, cache_dir=tmp_path)
        with capture("summary") as telemetry:
            loader = open_or_build(config, seed=4, cache_dir=tmp_path,
                                   stream=True)
            loader.gather(np.arange(len(loader)))  # cold sweep
            loader.gather(np.arange(len(loader)))  # warm sweep
            counters = telemetry.snapshot()["counters"]
        assert counters["store.lru.hits"] > 0
        # Four shards fit the default cache: the warm sweep misses nothing.
        assert counters["store.lru.misses"] == 4
