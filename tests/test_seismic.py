"""Tests for the seismic forward-modelling substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.seismic import (
    AcousticSimulator2D,
    ForwardModel,
    SimulationConfig,
    SpongeBoundary,
    SurveyGeometry,
    VelocityModelConfig,
    curved_layer_model,
    dominant_frequency,
    flat_fault_model,
    flat_layer_model,
    forward_model_shot_gather,
    layer_profile,
    random_velocity_models,
    ricker_wavelet,
    sponge_profile,
)


class TestRickerWavelet:
    def test_length(self):
        assert ricker_wavelet(100, 0.001, 15.0).size == 100

    def test_peak_amplitude(self):
        wavelet = ricker_wavelet(500, 0.001, 15.0, amplitude=2.0)
        assert wavelet.max() == pytest.approx(2.0, rel=1e-3)

    def test_peak_at_delay(self):
        delay = 0.1
        wavelet = ricker_wavelet(500, 0.001, 15.0, delay=delay)
        assert np.argmax(wavelet) == pytest.approx(delay / 0.001, abs=1)

    def test_near_zero_mean(self):
        wavelet = ricker_wavelet(2000, 0.001, 15.0)
        assert abs(wavelet.sum()) < 1e-6 * np.abs(wavelet).max() * wavelet.size

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            ricker_wavelet(0, 0.001, 15.0)
        with pytest.raises(ValueError):
            ricker_wavelet(10, -0.001, 15.0)
        with pytest.raises(ValueError):
            ricker_wavelet(10, 0.001, 0.0)

    def test_dominant_frequency_lowered_for_coarser_axis(self):
        """The paper lowers 15 Hz to ~8 Hz when shrinking the time axis."""
        scaled = dominant_frequency(15.0, 1000, 32)
        assert scaled < 15.0
        assert scaled >= 1.0

    def test_dominant_frequency_unchanged_when_not_downsampling(self):
        assert dominant_frequency(15.0, 100, 200) == 15.0

    def test_dominant_frequency_never_exceeds_original(self):
        """Regression: mild downsampling (1000 -> 900) used to *raise* the
        frequency (sqrt-law factor ~1.9) instead of scaling it down."""
        for scaled_steps in (900, 750, 500, 260, 100, 32):
            assert dominant_frequency(15.0, 1000, scaled_steps) <= 15.0

    def test_dominant_frequency_paper_anchor(self):
        """The paper's 15 Hz -> 8 Hz anchor for a ~4x coarser effective
        sampling (sqrt law: ratio (8/30)^2 ~= 71/1000 steps)."""
        assert dominant_frequency(15.0, 1000, 71) == pytest.approx(8.0,
                                                                   abs=0.1)

    def test_dominant_frequency_floor(self):
        assert dominant_frequency(15.0, 1000, 1) == 1.0


class TestSpongeBoundary:
    def test_profile_decays(self):
        taper = sponge_profile(20)
        assert taper[0] > taper[-1]
        assert np.all(taper <= 1.0)

    def test_profile_zero_width(self):
        assert sponge_profile(0).size == 0

    def test_mask_shape_and_range(self):
        mask = SpongeBoundary(width=5).build_mask((40, 40))
        assert mask.shape == (40, 40)
        assert mask.max() <= 1.0
        assert mask.min() > 0.0

    def test_free_surface_not_damped(self):
        mask = SpongeBoundary(width=5, free_surface=True).build_mask((40, 40))
        np.testing.assert_allclose(mask[0, 10:30], 1.0)

    def test_bottom_is_damped(self):
        mask = SpongeBoundary(width=5).build_mask((40, 40))
        assert mask[-1, 20] < 1.0

    def test_too_wide_sponge_raises(self):
        with pytest.raises(ValueError):
            SpongeBoundary(width=30).build_mask((20, 20))


class TestSurveyGeometry:
    def test_default_positions_on_surface(self):
        survey = SurveyGeometry(n_sources=3, n_receivers=10, nx=30)
        assert all(row == 1 for row, _ in survey.source_positions())
        assert len(survey.receiver_positions()) == 10

    def test_sources_span_the_surface(self):
        survey = SurveyGeometry(n_sources=5, n_receivers=70, nx=70)
        columns = [col for _, col in survey.source_positions()]
        assert columns[0] == 0
        assert columns[-1] == 69

    def test_scaled_survey(self):
        survey = SurveyGeometry(n_sources=5, n_receivers=70, nx=70)
        scaled = survey.scaled(nx=8)
        assert scaled.nx == 8
        assert scaled.n_sources == 5
        assert scaled.n_receivers == 8

    def test_scaled_preserves_explicit_columns(self):
        """Regression: explicit layouts were silently replaced by the
        default even spread after scaling."""
        survey = SurveyGeometry(n_sources=2, n_receivers=4, nx=20,
                                source_columns=[3, 10],
                                receiver_columns=[0, 5, 10, 19])
        scaled = survey.scaled(nx=10)
        assert scaled.source_columns == [1, 5]
        assert scaled.receiver_columns == [0, 2, 5, 9]

    def test_scaled_preserves_buried_depths(self):
        """Regression: min(depth, 1) clamping turned a buried-source survey
        into a surface survey after scaling."""
        survey = SurveyGeometry(n_sources=2, n_receivers=10, nx=70,
                                source_depth=35, receiver_depth=10)
        scaled = survey.scaled(nx=14)
        assert scaled.source_depth == 7
        assert scaled.receiver_depth == 2
        # Buried positions never collapse onto the surface.
        deep = SurveyGeometry(n_sources=2, n_receivers=8, nx=64,
                              source_depth=4, receiver_depth=1)
        assert deep.scaled(nx=8).source_depth >= 1
        assert deep.scaled(nx=8).receiver_depth == 1

    def test_scaled_default_layout_respreads(self):
        survey = SurveyGeometry(n_sources=5, n_receivers=70, nx=70)
        scaled = survey.scaled(nx=8)
        columns = [col for _, col in scaled.source_positions()]
        assert columns[0] == 0
        assert columns[-1] == 7

    def test_scaled_count_change_forces_fresh_spread(self):
        survey = SurveyGeometry(n_sources=2, n_receivers=4, nx=20,
                                source_columns=[3, 10])
        scaled = survey.scaled(nx=10, n_sources=3)
        assert len(scaled.source_columns) == 3

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            SurveyGeometry(n_sources=0)
        with pytest.raises(ValueError):
            SurveyGeometry(n_sources=10, n_receivers=10, nx=5)


class TestVelocityModels:
    def test_flat_layer_shape_and_range(self):
        config = VelocityModelConfig(shape=(32, 32))
        model = flat_layer_model(config, rng=0)
        assert model.shape == (32, 32)
        assert model.min() >= config.min_velocity
        assert model.max() <= config.max_velocity

    def test_flat_layers_are_laterally_constant(self):
        model = flat_layer_model(VelocityModelConfig(shape=(32, 32)), rng=1)
        np.testing.assert_allclose(model, np.repeat(model[:, :1], 32, axis=1))

    def test_velocity_increases_with_depth_when_requested(self):
        model = flat_layer_model(VelocityModelConfig(shape=(64, 16)), rng=2)
        profile = model[:, 0]
        assert np.all(np.diff(profile) >= -1e-9)

    def test_layer_count_respected(self):
        config = VelocityModelConfig(shape=(40, 40), min_layers=3, max_layers=3)
        model = flat_layer_model(config, rng=3)
        assert len(np.unique(model[:, 0])) == 3

    def test_curved_layers_vary_laterally(self):
        config = VelocityModelConfig(shape=(48, 48), min_layers=3, max_layers=5)
        model = curved_layer_model(config, rng=4)
        lateral_variation = np.abs(np.diff(model, axis=1)).sum()
        assert lateral_variation > 0

    def test_fault_model_has_lateral_discontinuity(self):
        config = VelocityModelConfig(shape=(48, 48), min_layers=3, max_layers=5)
        model = flat_fault_model(config, rng=5)
        jumps = np.abs(np.diff(model, axis=1)).max(axis=0)
        assert jumps.max() > 0

    def test_random_models_batch(self):
        batch = random_velocity_models(4, VelocityModelConfig(shape=(16, 16)), rng=6)
        assert batch.shape == (4, 16, 16)

    def test_unknown_family_raises(self):
        with pytest.raises(ValueError):
            random_velocity_models(2, family="bogus")

    def test_layer_profile(self):
        model = flat_layer_model(VelocityModelConfig(shape=(16, 16)), rng=7)
        profile = layer_profile(model)
        np.testing.assert_allclose(profile, model[:, 0])

    def test_deterministic_given_seed(self):
        config = VelocityModelConfig(shape=(16, 16))
        np.testing.assert_array_equal(flat_layer_model(config, rng=11),
                                      flat_layer_model(config, rng=11))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_generated_models_always_within_bounds(self, seed):
        config = VelocityModelConfig(shape=(24, 24))
        for generator in (flat_layer_model, curved_layer_model, flat_fault_model):
            model = generator(config, rng=seed)
            assert model.min() >= config.min_velocity - 1e-9
            assert model.max() <= config.max_velocity + 1e-9


class TestSimulationConfig:
    def test_cfl_check_passes_for_stable_dt(self):
        config = SimulationConfig(dx=10.0, dz=10.0, dt=0.001, n_steps=10)
        config.validate_cfl(4500.0)

    def test_cfl_check_fails_for_unstable_dt(self):
        config = SimulationConfig(dx=1.0, dz=1.0, dt=0.01, n_steps=10)
        with pytest.raises(ValueError):
            config.validate_cfl(4500.0)

    def test_stable_dt_is_stable(self):
        config = SimulationConfig(dx=10.0, dz=10.0, n_steps=10)
        dt = config.stable_dt(4500.0)
        stable = SimulationConfig(dx=10.0, dz=10.0, dt=dt, n_steps=10)
        stable.validate_cfl(4500.0)

    def test_invalid_spatial_order(self):
        with pytest.raises(ValueError):
            SimulationConfig(spatial_order=3)


class TestAcousticSimulator:
    def _small_sim(self, n_steps=80, order=4):
        velocity = np.full((24, 24), 2000.0)
        boundary = SpongeBoundary(width=4)
        config = SimulationConfig(dx=10.0, dz=10.0, dt=0.002, n_steps=n_steps,
                                  spatial_order=order, boundary=boundary)
        return AcousticSimulator2D(velocity, config), config

    def test_gather_shape(self):
        simulator, config = self._small_sim()
        wavelet = ricker_wavelet(config.n_steps, config.dt, 10.0)
        receivers = [(1, c) for c in range(0, 24, 4)]
        gather = simulator.simulate_shot((1, 12), wavelet, receivers)
        assert gather.shape == (config.n_steps, len(receivers))

    def test_energy_reaches_receivers(self):
        simulator, config = self._small_sim()
        wavelet = ricker_wavelet(config.n_steps, config.dt, 10.0)
        gather = simulator.simulate_shot((1, 12), wavelet, [(1, 4), (1, 20)])
        assert np.abs(gather).max() > 0

    def test_wave_arrives_later_at_farther_receiver(self):
        velocity = np.full((32, 64), 2000.0)
        config = SimulationConfig(dx=10.0, dz=10.0, dt=0.002, n_steps=150,
                                  boundary=SpongeBoundary(width=5))
        simulator = AcousticSimulator2D(velocity, config)
        wavelet = ricker_wavelet(config.n_steps, config.dt, 10.0)
        gather = simulator.simulate_shot((1, 5), wavelet, [(1, 15), (1, 45)])
        near = np.argmax(np.abs(gather[:, 0]) > 0.1 * np.abs(gather[:, 0]).max())
        far = np.argmax(np.abs(gather[:, 1]) > 0.1 * np.abs(gather[:, 1]).max())
        assert far > near

    def test_simulation_remains_bounded(self):
        """The sponge boundary keeps the explicit scheme stable."""
        simulator, config = self._small_sim(n_steps=200)
        wavelet = ricker_wavelet(config.n_steps, config.dt, 10.0)
        gather = simulator.simulate_shot((1, 12), wavelet, [(1, 6)])
        assert np.all(np.isfinite(gather))
        peak_wavelet_energy = np.abs(gather[:60]).max()
        assert np.abs(gather[-20:]).max() < 10 * peak_wavelet_energy

    def test_second_and_eighth_order_agree_roughly(self):
        velocity = np.full((24, 24), 2000.0)
        gathers = {}
        for order in (2, 8):
            config = SimulationConfig(dx=10.0, dz=10.0, dt=0.0015, n_steps=100,
                                      spatial_order=order,
                                      boundary=SpongeBoundary(width=4))
            simulator = AcousticSimulator2D(velocity, config)
            wavelet = ricker_wavelet(config.n_steps, config.dt, 10.0)
            gathers[order] = simulator.simulate_shot((1, 12), wavelet, [(1, 18)])
        correlation = np.corrcoef(gathers[2].ravel(), gathers[8].ravel())[0, 1]
        assert correlation > 0.9

    def test_rejects_bad_velocity(self):
        with pytest.raises(ValueError):
            AcousticSimulator2D(np.full((10, 10), -1.0))
        with pytest.raises(ValueError):
            AcousticSimulator2D(np.ones(10))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_velocity(self, bad):
        velocity = np.full((10, 10), 2000.0)
        velocity[4, 6] = bad
        with pytest.raises(ValueError, match="finite"):
            AcousticSimulator2D(velocity)

    def test_rejects_out_of_grid_source_or_receiver(self):
        simulator, config = self._small_sim(n_steps=5)
        wavelet = ricker_wavelet(5, config.dt, 10.0)
        with pytest.raises(ValueError):
            simulator.simulate_shot((100, 0), wavelet, [(1, 1)])
        with pytest.raises(ValueError):
            simulator.simulate_shot((1, 1), wavelet, [(100, 0)])

    def test_wavefield_snapshots(self):
        simulator, config = self._small_sim(n_steps=40)
        wavelet = ricker_wavelet(40, config.dt, 10.0)
        gather, snapshots = simulator.simulate_shot((1, 12), wavelet, [(1, 6)],
                                                    record_wavefield=True,
                                                    wavefield_stride=10)
        assert len(snapshots) == 4
        assert snapshots[0].shape == (24, 24)


class TestForwardModel:
    def test_shot_gather_layout(self):
        gather = forward_model_shot_gather(np.full((20, 20), 2000.0),
                                           n_sources=3, n_steps=60)
        assert gather.shape == (3, 60, 20)

    def test_normalised_amplitude(self):
        gather = forward_model_shot_gather(np.full((20, 20), 2000.0),
                                           n_sources=2, n_steps=60)
        assert np.abs(gather).max() == pytest.approx(1.0)

    def test_different_velocities_give_different_data(self):
        slow = forward_model_shot_gather(np.full((20, 20), 1600.0),
                                         n_sources=1, n_steps=80, dx=20.0)
        fast = forward_model_shot_gather(np.full((20, 20), 4000.0),
                                         n_sources=1, n_steps=80, dx=20.0)
        assert not np.allclose(slow, fast)

    def test_forward_model_class(self):
        survey = SurveyGeometry(n_sources=2, n_receivers=10, nx=20)
        config = SimulationConfig(dx=20.0, dz=20.0, dt=0.002, n_steps=50,
                                  boundary=SpongeBoundary(width=4))
        model = ForwardModel(survey=survey, config=config)
        gather = model.model_shots(np.full((20, 20), 2500.0))
        assert gather.shape == (2, 50, 10)

    def test_forward_model_rejects_wrong_width(self):
        survey = SurveyGeometry(n_sources=2, n_receivers=10, nx=20)
        config = SimulationConfig(dx=20.0, dz=20.0, dt=0.002, n_steps=10,
                                  boundary=SpongeBoundary(width=4))
        model = ForwardModel(survey=survey, config=config)
        with pytest.raises(ValueError):
            model.model_shots(np.full((20, 30), 2500.0))

    def test_layered_model_produces_reflections(self):
        """A velocity contrast must change the recorded wavefield."""
        homogeneous = np.full((32, 32), 1800.0)
        layered = homogeneous.copy()
        layered[16:, :] = 4200.0
        # Fixed dt so both records share the same time axis; 350 steps cover
        # the ~0.4 s two-way travel time to the interface.
        gather_h = forward_model_shot_gather(homogeneous, n_sources=1,
                                             n_steps=350, dx=21.875, dt=0.002)
        gather_l = forward_model_shot_gather(layered, n_sources=1,
                                             n_steps=350, dx=21.875, dt=0.002)
        # The early record (direct wave near the source) is similar, but the
        # interface must change the later part of the record.
        late_difference = np.abs(gather_l[0, 150:, :] - gather_h[0, 150:, :]).mean()
        early_scale = np.abs(gather_h[0, :100, :]).mean()
        assert late_difference > 0.1 * early_scale
