"""Tests for QuGeoData: D-Sample, Q-D-FW and Q-D-CNN scalers."""

import numpy as np
import pytest

from repro.core.classical_models import CompressionCNN
from repro.core.config import QuGeoDataConfig
from repro.core.data_scaling import (
    RESIMULATION_CHUNK,
    BaseScaler,
    CNNScaler,
    DSampleScaler,
    ForwardModelingScaler,
    ScaledSample,
)
from repro.data.dataset import FWIDataset, FWISample
from repro.data.resample import bilinear_resample
from repro.metrics import ssim


class TestDSampleScaler:
    def test_scaled_shapes(self, tiny_dataset, small_data_config):
        scaler = DSampleScaler(small_data_config)
        scaled = scaler.scale_sample(tiny_dataset[0])
        assert scaled.seismic.shape == small_data_config.scaled_seismic_shape
        assert scaled.velocity.shape == small_data_config.scaled_velocity_shape

    def test_velocity_normalised(self, tiny_dataset, small_data_config):
        scaled = DSampleScaler(small_data_config).scale_sample(tiny_dataset[0])
        assert scaled.velocity.min() >= 0.0
        assert scaled.velocity.max() <= 1.0

    def test_method_recorded(self, tiny_dataset, small_data_config):
        scaled = DSampleScaler(small_data_config).scale_sample(tiny_dataset[0])
        assert scaled.method == "D-Sample"
        assert isinstance(scaled, ScaledSample)

    def test_seismic_values_subset_of_original(self, tiny_dataset, small_data_config):
        sample = tiny_dataset[0]
        scaled = DSampleScaler(small_data_config).scale_sample(sample)
        assert np.all(np.isin(scaled.seismic, sample.seismic))

    def test_scale_dataset(self, tiny_dataset, small_data_config):
        scaler = DSampleScaler(small_data_config)
        scaled = scaler.scale_dataset(tiny_dataset)
        assert len(scaled) == len(tiny_dataset)

    def test_seismic_vector_length(self, tiny_dataset, small_data_config):
        scaled = DSampleScaler(small_data_config).scale_sample(tiny_dataset[0])
        assert scaled.seismic_vector().size == small_data_config.scaled_seismic_size


class TestForwardModelingScaler:
    def test_scaled_shapes(self, tiny_dataset, small_data_config):
        scaler = ForwardModelingScaler(small_data_config,
                                       simulation_shape=(16, 16),
                                       simulation_steps=64)
        scaled = scaler.scale_sample(tiny_dataset[0])
        assert scaled.seismic.shape == small_data_config.scaled_seismic_shape
        assert scaled.velocity.shape == small_data_config.scaled_velocity_shape
        assert scaled.method == "Q-D-FW"

    def test_produces_physical_waveforms(self, tiny_scaled_dataset):
        for sample in tiny_scaled_dataset:
            assert np.all(np.isfinite(sample.seismic))
            assert np.abs(sample.seismic).max() > 0

    def test_differs_from_naive_downsampling(self, tiny_dataset, small_data_config):
        """Re-simulated data must not equal nearest-neighbour decimation."""
        fw = ForwardModelingScaler(small_data_config, simulation_shape=(16, 16),
                                   simulation_steps=64)
        ds = DSampleScaler(small_data_config)
        sample = tiny_dataset[0]
        assert not np.allclose(fw.scale_sample(sample).seismic,
                               ds.scale_sample(sample).seismic)

    def test_scaled_frequency_lowered(self, small_data_config):
        scaler = ForwardModelingScaler(small_data_config)
        assert scaler.scaled_frequency(1000) == pytest.approx(
            small_data_config.scaled_peak_frequency)
        config = QuGeoDataConfig(scaled_seismic_shape=(1, 8, 8),
                                 scaled_velocity_shape=(6, 6),
                                 scaled_peak_frequency=None)
        derived = ForwardModelingScaler(config).scaled_frequency(1000)
        assert derived < config.original_peak_frequency

    def test_velocity_uses_bilinear(self, tiny_dataset, small_data_config):
        """Q-D-FW smooths the velocity map rather than picking nearest cells."""
        scaler = ForwardModelingScaler(small_data_config, simulation_shape=(16, 16),
                                       simulation_steps=64)
        scaled = scaler.scale_sample(tiny_dataset[0])
        original_unique = np.unique(tiny_dataset[0].velocity).size
        assert np.unique(scaled.velocity).size >= min(original_unique, 4)

    def test_simulation_steps_validation(self, small_data_config):
        with pytest.raises(ValueError):
            ForwardModelingScaler(small_data_config, simulation_steps=2)


def _variants(dataset, count, dxs=(10.0,), time_steps=(None,)):
    """``count`` samples built from ``dataset``'s, each map scaled by its own
    factor (so each has its own peak velocity and CFL step), cycling through
    ``dxs`` grid spacings and seismic time-axis lengths."""
    base = list(dataset)
    samples = []
    for i in range(count):
        sample = base[i % len(base)]
        n_time = time_steps[i % len(time_steps)]
        samples.append(FWISample(
            seismic=sample.seismic[:, :n_time],
            velocity=sample.velocity * (0.8 + 0.05 * i),
            metadata=dict(sample.metadata, dx=dxs[i % len(dxs)])))
    return samples


def _per_sample(scaler, samples):
    """The reference: one :meth:`scale_seismic` re-simulation per sample."""
    return np.stack([scaler.scale_seismic(sample) for sample in samples])


class TestBatchedResimulation:
    """``ForwardModelingScaler.dataset_seismic`` against a per-sample loop."""

    @pytest.fixture()
    def scaler(self, small_data_config):
        return ForwardModelingScaler(small_data_config,
                                     simulation_shape=(16, 16),
                                     simulation_steps=64)

    def test_each_map_at_its_own_time_step(self, scaler, tiny_dataset,
                                           counting_forward):
        samples = _variants(tiny_dataset, RESIMULATION_CHUNK)
        peaks = {float(bilinear_resample(s.velocity, (16, 16)).max())
                 for s in samples}
        assert len(peaks) == len(samples)
        batched = scaler.dataset_seismic(samples)
        assert counting_forward["calls"] == 1
        assert np.array_equal(batched, _per_sample(scaler, samples))

    def test_two_grid_spacings(self, scaler, tiny_dataset, counting_forward):
        samples = _variants(tiny_dataset, 6, dxs=(10.0, 20.0))
        batched = scaler.dataset_seismic(samples)
        assert counting_forward["calls"] == 2
        assert np.array_equal(batched, _per_sample(scaler, samples))

    def test_two_source_frequencies(self, tiny_dataset, counting_forward):
        config = QuGeoDataConfig(scaled_seismic_shape=(1, 8, 8),
                                 scaled_velocity_shape=(6, 6),
                                 scaled_peak_frequency=None)
        scaler = ForwardModelingScaler(config, simulation_shape=(16, 16),
                                       simulation_steps=64)
        samples = _variants(tiny_dataset, 4, time_steps=(None, 60))
        assert len({scaler.scaled_frequency(s.seismic.shape[1])
                    for s in samples}) == 2
        batched = scaler.dataset_seismic(samples)
        assert counting_forward["calls"] == 2
        assert np.array_equal(batched, _per_sample(scaler, samples))

    def test_count_not_a_multiple_of_the_chunk(self, scaler, tiny_dataset,
                                               counting_forward):
        samples = _variants(tiny_dataset, 2 * RESIMULATION_CHUNK + 1)
        batched = scaler.dataset_seismic(samples)
        assert counting_forward["calls"] == 3
        assert np.array_equal(batched, _per_sample(scaler, samples))

    def test_empty_dataset(self, scaler, small_data_config):
        assert scaler.dataset_seismic([]).shape == (
            0, *small_data_config.scaled_seismic_shape)
        assert len(scaler.scale_dataset(FWIDataset([]))) == 0

    def test_scale_dataset_pairs_the_cubes_through_scale_sample(
            self, scaler, tiny_dataset, monkeypatch):
        samples = _variants(tiny_dataset, 5, dxs=(10.0, 20.0))
        given = []
        original = BaseScaler.scale_sample

        def recording(self, sample, seismic=None):
            given.append(seismic)
            return original(self, sample, seismic)

        monkeypatch.setattr(BaseScaler, "scale_sample", recording)
        scaled = scaler.scale_dataset(samples)
        assert len(given) == len(samples)
        assert all(seismic is not None for seismic in given)
        for sample, result in zip(samples, scaled):
            assert np.array_equal(result.seismic, scaler.scale_seismic(sample))
            assert np.array_equal(result.velocity, scaler.scale_velocity(
                sample.velocity, method="bilinear"))
            assert result.method == "Q-D-FW"


class TestCNNScaler:
    @pytest.fixture(scope="class")
    def trained_scaler(self, tiny_dataset, small_data_config):
        reference = ForwardModelingScaler(small_data_config,
                                          simulation_shape=(16, 16),
                                          simulation_steps=64)
        return CNNScaler.train(tiny_dataset, config=small_data_config,
                               reference_scaler=reference, epochs=15,
                               learning_rate=0.01, batch_size=3, rng=0)

    def test_scaled_shapes(self, trained_scaler, tiny_dataset, small_data_config):
        scaled = trained_scaler.scale_sample(tiny_dataset[0])
        assert scaled.seismic.shape == small_data_config.scaled_seismic_shape
        assert scaled.method == "Q-D-CNN"

    def test_learns_to_approximate_physics_guided_data(self, trained_scaler,
                                                       tiny_dataset,
                                                       small_data_config):
        """The compressor output should resemble Q-D-FW more than noise does."""
        reference = ForwardModelingScaler(small_data_config,
                                          simulation_shape=(16, 16),
                                          simulation_steps=64)
        sample = tiny_dataset[0]
        target = reference.scale_seismic(sample).reshape(-1)
        predicted = trained_scaler.scale_seismic(sample).reshape(-1)
        rng = np.random.default_rng(0)
        noise = rng.normal(0, target.std() + 1e-9, size=target.size)
        error_cnn = np.mean((predicted - target) ** 2)
        error_noise = np.mean((noise - target) ** 2)
        assert error_cnn < error_noise

    def test_requires_training_data(self, small_data_config):
        with pytest.raises(ValueError):
            CNNScaler.train([], config=small_data_config)

    def test_wraps_existing_compressor(self, tiny_dataset, small_data_config):
        sample = tiny_dataset[0]
        compressor = CompressionCNN(input_shape=sample.seismic.shape,
                                    output_size=small_data_config.scaled_seismic_size,
                                    rng=0)
        scaler = CNNScaler(compressor, small_data_config)
        assert scaler.scale_sample(sample).seismic.shape == \
            small_data_config.scaled_seismic_shape


class TestCNNScalerTargets:
    def test_batched_targets_train_the_same_compressor(
            self, tiny_dataset, small_data_config, monkeypatch):
        """The regression targets come from one batched re-simulation, and
        the compressor trained on them equals one trained on per-sample
        targets, weight for weight."""
        reference = ForwardModelingScaler(small_data_config,
                                          simulation_shape=(16, 16),
                                          simulation_steps=64)

        def train():
            return CNNScaler.train(tiny_dataset, config=small_data_config,
                                   reference_scaler=reference, epochs=3,
                                   batch_size=3, rng=0)

        batched = train()
        looped_calls = []

        def looped(self, samples):
            looped_calls.append(len(samples))
            return _per_sample(self, samples)

        monkeypatch.setattr(ForwardModelingScaler, "dataset_seismic", looped)
        per_sample = train()
        assert looped_calls == [len(tiny_dataset)]
        expected = per_sample.compressor.state_dict()
        for name, value in batched.compressor.state_dict().items():
            assert np.array_equal(value, expected[name]), name


class TestScaledDataQuality:
    def test_velocity_targets_match_between_scalers(self, tiny_dataset,
                                                    small_data_config):
        """All scalers regress maps of the same shape and normalisation."""
        d_sample = DSampleScaler(small_data_config).scale_sample(tiny_dataset[0])
        fw = ForwardModelingScaler(small_data_config, simulation_shape=(16, 16),
                                   simulation_steps=64).scale_sample(tiny_dataset[0])
        assert d_sample.velocity.shape == fw.velocity.shape
        # Same underlying model, so the scaled maps must be highly similar.
        assert ssim(d_sample.velocity, fw.velocity, data_range=1.0) > 0.5

    def test_layered_structure_survives_scaling(self, tiny_scaled_dataset):
        """Deeper rows should not be slower than shallow rows on average."""
        for sample in tiny_scaled_dataset:
            profile = sample.velocity.mean(axis=1)
            assert profile[-1] >= profile[0] - 0.2
