"""Tests for repro.data: resampling, normalisation, datasets, synthetic OpenFWI."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    FWIDataset,
    FWISample,
    MinMaxNormalizer,
    OpenFWIConfig,
    VelocityNormalizer,
    bilinear_resample,
    build_flatvel_dataset,
    nearest_neighbor_resample,
    resample_2d,
    train_test_split,
)


class TestResampling:
    def test_nearest_downsample_shape(self):
        out = nearest_neighbor_resample(np.arange(100.0).reshape(10, 10), (4, 5))
        assert out.shape == (4, 5)

    def test_nearest_identity_when_same_shape(self):
        image = np.random.default_rng(0).random((6, 6))
        np.testing.assert_array_equal(nearest_neighbor_resample(image, (6, 6)), image)

    def test_nearest_preserves_values(self):
        image = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = nearest_neighbor_resample(image, (4, 4))
        assert set(np.unique(out)) <= {1.0, 2.0, 3.0, 4.0}

    def test_nearest_3d(self):
        cube = np.random.default_rng(1).random((5, 100, 70))
        out = nearest_neighbor_resample(cube, (4, 8, 8))
        assert out.shape == (4, 8, 8)

    def test_nearest_rank_mismatch_raises(self):
        with pytest.raises(ValueError):
            nearest_neighbor_resample(np.zeros((4, 4)), (2, 2, 2))

    def test_bilinear_shape(self):
        out = bilinear_resample(np.random.default_rng(2).random((70, 70)), (8, 8))
        assert out.shape == (8, 8)

    def test_bilinear_constant_image_unchanged(self):
        out = bilinear_resample(np.full((20, 20), 3.5), (7, 9))
        np.testing.assert_allclose(out, 3.5)

    def test_bilinear_preserves_range(self):
        image = np.random.default_rng(3).random((30, 30))
        out = bilinear_resample(image, (8, 8))
        assert out.min() >= image.min() - 1e-12
        assert out.max() <= image.max() + 1e-12

    def test_bilinear_requires_2d(self):
        with pytest.raises(ValueError):
            bilinear_resample(np.zeros(10), (2, 2))

    def test_resample_2d_dispatch(self):
        image = np.random.default_rng(4).random((16, 16))
        assert resample_2d(image, (4, 4), "nearest").shape == (4, 4)
        assert resample_2d(image, (4, 4), "bilinear").shape == (4, 4)
        with pytest.raises(ValueError):
            resample_2d(image, (4, 4), "bogus")

    def test_nearest_halfway_positions_round_up(self):
        """Regression: np.round's banker's rounding sent exact half-way
        positions alternately to the lower/upper neighbour; the standard
        nearest-neighbour convention is floor(x + 0.5)."""
        # Downsampling 4 -> 2 puts every target at a half-way position
        # (0.5 and 2.5): floor(x + 0.5) picks indices 1 and 3.
        row = np.array([[10.0, 20.0, 30.0, 40.0]])
        np.testing.assert_array_equal(
            nearest_neighbor_resample(row, (1, 2)), [[20.0, 40.0]])
        # Banker's rounding used to pick {0, 2} (inconsistent neighbours).
        longer = np.arange(8.0).reshape(1, 8)
        np.testing.assert_array_equal(
            nearest_neighbor_resample(longer, (1, 4)), [[1.0, 3.0, 5.0, 7.0]])

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000),
           rows=st.integers(2, 12), cols=st.integers(2, 12))
    def test_nearest_values_come_from_source(self, seed, rows, cols):
        image = np.random.default_rng(seed).random((17, 13))
        out = nearest_neighbor_resample(image, (rows, cols))
        assert np.all(np.isin(out, image))


class TestNormalizers:
    def test_velocity_roundtrip(self):
        normalizer = VelocityNormalizer(1500.0, 4500.0)
        velocity = np.array([1500.0, 3000.0, 4500.0])
        normalized = normalizer.normalize(velocity)
        np.testing.assert_allclose(normalized, [0.0, 0.5, 1.0])
        np.testing.assert_allclose(normalizer.denormalize(normalized), velocity)

    def test_velocity_invalid_range(self):
        with pytest.raises(ValueError):
            VelocityNormalizer(2000.0, 1000.0)

    def test_minmax_roundtrip(self):
        data = np.random.default_rng(5).normal(size=100)
        normalizer = MinMaxNormalizer().fit(data)
        transformed = normalizer.transform(data)
        assert transformed.min() == pytest.approx(0.0)
        assert transformed.max() == pytest.approx(1.0)
        np.testing.assert_allclose(normalizer.inverse_transform(transformed), data)

    def test_minmax_requires_fit(self):
        with pytest.raises(RuntimeError):
            MinMaxNormalizer().transform(np.ones(3))

    def test_minmax_constant_data(self):
        normalizer = MinMaxNormalizer().fit(np.full(10, 2.0))
        out = normalizer.transform(np.full(10, 2.0))
        assert np.all(np.isfinite(out))

    def test_minmax_constant_data_round_trips(self):
        """Regression: fit() used to inflate ``maximum`` by 1.0 on constant
        data, recording a range the data never had."""
        data = np.full(10, 2.0)
        normalizer = MinMaxNormalizer().fit(data)
        assert normalizer.minimum == 2.0
        assert normalizer.maximum == 2.0
        round_trip = normalizer.inverse_transform(normalizer.transform(data))
        np.testing.assert_array_equal(round_trip, data)


class TestDataset:
    def _samples(self, count=5):
        rng = np.random.default_rng(6)
        return [FWISample(seismic=rng.random((2, 10, 8)),
                          velocity=rng.random((8, 8)),
                          metadata={"index": i}) for i in range(count)]

    def test_len_and_getitem(self):
        dataset = FWIDataset(self._samples())
        assert len(dataset) == 5
        assert isinstance(dataset[0], FWISample)

    def test_slice_returns_dataset(self):
        dataset = FWIDataset(self._samples())
        subset = dataset[:2]
        assert isinstance(subset, FWIDataset)
        assert len(subset) == 2

    def test_arrays_stacking(self):
        dataset = FWIDataset(self._samples())
        assert dataset.seismic_array().shape == (5, 2, 10, 8)
        assert dataset.velocity_array().shape == (5, 8, 8)

    def test_subset_and_shuffle(self):
        dataset = FWIDataset(self._samples())
        subset = dataset.subset([3, 1])
        assert subset[0].metadata["index"] == 3
        shuffled = dataset.shuffled(rng=0)
        assert len(shuffled) == len(dataset)

    def test_map(self):
        dataset = FWIDataset(self._samples())
        doubled = dataset.map(lambda s: FWISample(s.seismic * 2, s.velocity,
                                                  s.metadata))
        np.testing.assert_allclose(doubled[0].seismic, dataset[0].seismic * 2)

    def test_batches(self):
        dataset = FWIDataset(self._samples())
        batches = list(dataset.batches(2))
        assert [len(b) for b in batches] == [2, 2, 1]
        batches = list(dataset.batches(2, drop_last=True))
        assert [len(b) for b in batches] == [2, 2]

    def test_batches_invalid_size(self):
        with pytest.raises(ValueError):
            list(FWIDataset(self._samples()).batches(0))

    def test_train_test_split_sizes(self):
        dataset = FWIDataset(self._samples(10))
        train, test = train_test_split(dataset, train_size=7, rng=0)
        assert len(train) == 7
        assert len(test) == 3

    def test_train_test_split_disjoint(self):
        dataset = FWIDataset(self._samples(10))
        train, test = train_test_split(dataset, train_size=6, rng=1)
        train_ids = {s.metadata["index"] for s in train}
        test_ids = {s.metadata["index"] for s in test}
        assert not train_ids & test_ids

    def test_train_test_split_invalid(self):
        dataset = FWIDataset(self._samples(4))
        with pytest.raises(ValueError):
            train_test_split(dataset, train_size=4)
        with pytest.raises(ValueError):
            train_test_split(dataset, train_size=3, test_size=5)


class TestSyntheticOpenFWI:
    def test_config_defaults_match_paper(self):
        config = OpenFWIConfig()
        assert config.velocity_shape == (70, 70)
        assert config.n_sources == 5
        assert config.n_receivers == 70
        assert config.n_time_steps == 1000

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            OpenFWIConfig(n_samples=0)

    def test_build_small_dataset(self, tiny_dataset):
        assert len(tiny_dataset) == 6
        sample = tiny_dataset[0]
        assert sample.seismic.shape == (3, 120, 24)
        assert sample.velocity.shape == (24, 24)

    def test_samples_have_metadata(self, tiny_dataset):
        assert "dx" in tiny_dataset[0].metadata
        assert tiny_dataset[0].metadata["family"] == "flat"

    def test_seismic_data_is_finite_and_nonzero(self, tiny_dataset):
        for sample in tiny_dataset:
            assert np.all(np.isfinite(sample.seismic))
            assert np.abs(sample.seismic).max() > 0

    def test_velocities_within_openfwi_range(self, tiny_dataset):
        for sample in tiny_dataset:
            assert sample.velocity.min() >= 1500.0
            assert sample.velocity.max() <= 4500.0

    def test_deterministic_generation(self):
        a = build_flatvel_dataset(n_samples=2, velocity_shape=(16, 16),
                                  n_time_steps=40, n_sources=2, rng=3)
        b = build_flatvel_dataset(n_samples=2, velocity_shape=(16, 16),
                                  n_time_steps=40, n_sources=2, rng=3)
        np.testing.assert_allclose(a[0].seismic, b[0].seismic)
        np.testing.assert_allclose(a[1].velocity, b[1].velocity)

    def test_domain_width_sets_dx(self):
        dataset = build_flatvel_dataset(n_samples=1, velocity_shape=(16, 16),
                                        n_time_steps=30, n_sources=1, rng=0,
                                        domain_width=700.0)
        assert dataset[0].metadata["dx"] == pytest.approx(700.0 / 16)

    def test_curve_family(self):
        dataset = build_flatvel_dataset(n_samples=1, velocity_shape=(16, 16),
                                        n_time_steps=30, n_sources=1, rng=0,
                                        family="curve")
        assert dataset[0].metadata["family"] == "curve"
