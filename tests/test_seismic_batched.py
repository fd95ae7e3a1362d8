"""Tests for the batched multi-shot acoustic propagator and its registry.

The batched engine must reproduce the scalar reference bit-for-bit (well
inside the 1e-10 acceptance tolerance) on random layered models across every
supported spatial order, with and without wavefield recording, and on the
multi-velocity-model path used by dataset generation.
"""

import dataclasses

import numpy as np
import pytest

from repro.seismic import (
    AcousticSimulator2D,
    BatchedAcousticSimulator2D,
    ForwardModel,
    SimulationConfig,
    SpongeBoundary,
    SurveyGeometry,
    VelocityModelConfig,
    default_propagator_name,
    flat_layer_model,
    forward_model_shot_gather,
    get_propagator,
    normalize_per_shot,
    nyquist_record_stride,
    ricker_wavelet,
    stable_time_step,
)
from repro.seismic.kernels import KERNELS
from repro.seismic.propagators import PROPAGATORS
from repro.utils.registry import DuplicateNameError, UnknownNameError


def _layered_velocity(seed, shape=(24, 24)):
    config = VelocityModelConfig(shape=shape, min_velocity=1500.0,
                                 max_velocity=3500.0)
    return flat_layer_model(config, rng=seed)


def _config(n_steps=60, order=4, dx=10.0):
    dt = stable_time_step(3500.0, dx=dx, spatial_order=order)
    return SimulationConfig(dx=dx, dz=dx, dt=dt, n_steps=n_steps,
                            spatial_order=order,
                            boundary=SpongeBoundary(width=4))


SOURCES = [(1, 3), (1, 12), (1, 20)]
RECEIVERS = [(1, c) for c in range(0, 24, 3)]


def _forward_model(propagator=None, normalize=True):
    survey = SurveyGeometry(n_sources=3, n_receivers=12, nx=24)
    return ForwardModel(survey=survey, config=_config(n_steps=50),
                        normalize=normalize, propagator=propagator)


class TestBatchedScalarParity:
    @pytest.mark.parametrize("order", [2, 4, 8])
    def test_gathers_match_scalar_reference(self, order):
        velocity = _layered_velocity(seed=order, shape=(24, 24))
        config = _config(order=order)
        wavelet = ricker_wavelet(config.n_steps, config.dt, 12.0)
        scalar = AcousticSimulator2D(velocity, config)
        batched = BatchedAcousticSimulator2D(velocity, config)
        reference = scalar.simulate_shots(SOURCES, wavelet, RECEIVERS)
        result = batched.simulate_shots(SOURCES, wavelet, RECEIVERS)
        assert result.shape == (len(SOURCES), config.n_steps, len(RECEIVERS))
        np.testing.assert_allclose(result, reference, atol=1e-10, rtol=0)

    @pytest.mark.parametrize("order", [2, 4, 8])
    def test_wavefield_snapshots_match(self, order):
        velocity = _layered_velocity(seed=10 + order)
        config = _config(n_steps=40, order=order)
        wavelet = ricker_wavelet(config.n_steps, config.dt, 12.0)
        ref_gather, ref_snaps = AcousticSimulator2D(velocity, config).simulate_shots(
            SOURCES, wavelet, RECEIVERS, record_wavefield=True, wavefield_stride=10)
        gather, snaps = BatchedAcousticSimulator2D(velocity, config).simulate_shots(
            SOURCES, wavelet, RECEIVERS, record_wavefield=True, wavefield_stride=10)
        np.testing.assert_allclose(gather, ref_gather, atol=1e-10, rtol=0)
        assert len(snaps) == len(ref_snaps) == 4
        for snap, ref in zip(snaps, ref_snaps):
            assert snap.shape == (len(SOURCES), 24, 24)
            np.testing.assert_allclose(snap, ref, atol=1e-10, rtol=0)

    def test_multi_model_batch_matches_per_map_scalar(self):
        velocities = np.stack([_layered_velocity(seed) for seed in (3, 5, 7)])
        config = _config(n_steps=50)
        wavelet = ricker_wavelet(config.n_steps, config.dt, 12.0)
        batched = BatchedAcousticSimulator2D(velocities, config)
        assert batched.n_models == 3
        result = batched.simulate_shots(SOURCES, wavelet, RECEIVERS)
        assert result.shape == (3, len(SOURCES), config.n_steps, len(RECEIVERS))
        for m, velocity in enumerate(velocities):
            reference = AcousticSimulator2D(velocity, config).simulate_shots(
                SOURCES, wavelet, RECEIVERS)
            np.testing.assert_allclose(result[m], reference, atol=1e-10, rtol=0)

    def test_per_shot_wavelets(self):
        velocity = _layered_velocity(seed=2)
        config = _config(n_steps=50)
        base = ricker_wavelet(config.n_steps, config.dt, 12.0)
        wavelets = np.stack([base, 2.0 * base, 0.5 * base])
        batched = BatchedAcousticSimulator2D(velocity, config).simulate_shots(
            SOURCES, wavelets, RECEIVERS)
        scalar_sim = AcousticSimulator2D(velocity, config)
        for s, (source, wavelet) in enumerate(zip(SOURCES, wavelets)):
            reference = scalar_sim.simulate_shot(source, wavelet, RECEIVERS)
            np.testing.assert_allclose(batched[s], reference, atol=1e-10, rtol=0)

    def test_three_pass_update_matches_scalar(self, monkeypatch):
        """Without BLAS axpy the three-pass leap-frog update holds parity too."""
        import repro.seismic.acoustic2d as acoustic2d

        monkeypatch.setattr(acoustic2d, "_daxpy", None)
        velocity = _layered_velocity(seed=6)
        config = _config(n_steps=50)
        wavelet = ricker_wavelet(config.n_steps, config.dt, 12.0)
        batched = BatchedAcousticSimulator2D(velocity, config)
        result = batched.simulate_shots(SOURCES, wavelet, RECEIVERS)
        reference = AcousticSimulator2D(velocity, config).simulate_shots(
            SOURCES, wavelet, RECEIVERS)
        np.testing.assert_allclose(result, reference, atol=1e-10, rtol=0)

    def test_rejects_bad_inputs(self):
        config = _config(n_steps=5)
        with pytest.raises(ValueError):
            BatchedAcousticSimulator2D(np.ones(10), config)
        with pytest.raises(ValueError):
            BatchedAcousticSimulator2D(np.full((24, 24), -1.0), config)
        simulator = BatchedAcousticSimulator2D(_layered_velocity(1), config)
        wavelet = ricker_wavelet(5, config.dt, 12.0)
        with pytest.raises(ValueError):
            simulator.simulate_shots([(100, 0)], wavelet, RECEIVERS)
        with pytest.raises(ValueError):
            simulator.simulate_shots(SOURCES, wavelet, [(100, 0)])
        with pytest.raises(ValueError):
            simulator.simulate_shots([], wavelet, RECEIVERS)
        with pytest.raises(ValueError):
            simulator.simulate_shots(SOURCES, np.zeros((2, 5)), RECEIVERS)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_velocity(self, bad):
        velocities = np.stack([_layered_velocity(1), _layered_velocity(2)])
        velocities[1, 7, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            BatchedAcousticSimulator2D(velocities, _config(n_steps=5))
        with pytest.raises(ValueError, match="finite"):
            BatchedAcousticSimulator2D(velocities[1], _config(n_steps=5))


class TestLaplacianConvergenceOracle:
    """The batched Laplacian against a closed form, not another propagator.

    ``f = sin(2 pi x) cos(2 pi z)`` on the unit square has the Laplacian
    ``-8 pi^2 f``.  Halving the grid spacing must shrink the error on the
    interior cells (clear of the edge-clamped taps) by ``2**spatial_order``.
    """

    @staticmethod
    def _interior_error(order, n):
        h = 1.0 / n
        centres = (np.arange(n) + 0.5) * h
        z, x = np.meshgrid(centres, centres, indexing="ij")
        field = np.sin(2 * np.pi * x) * np.cos(2 * np.pi * z)
        config = SimulationConfig(
            dx=h, dz=h, dt=stable_time_step(1.0, dx=h, spatial_order=order),
            n_steps=1, spatial_order=order, boundary=SpongeBoundary(width=2))
        simulator = BatchedAcousticSimulator2D(np.ones((n, n)), config)
        lap = simulator._laplacian_into(field, np.empty_like(field),
                                        np.empty_like(field))
        inner = (slice(order // 2, n - order // 2),) * 2
        return np.abs(lap - (-8 * np.pi**2) * field)[inner].max()

    # Order 8 reaches roundoff by n ~ 96, so it is measured on coarse grids.
    @pytest.mark.parametrize("order, grids", [
        (2, (24, 48, 96)),
        (4, (24, 48, 96)),
        (8, (24, 48)),
    ])
    def test_observed_order_matches_spatial_order(self, order, grids):
        errors = [self._interior_error(order, n) for n in grids]
        slopes = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        np.testing.assert_allclose(slopes, order, atol=0.3)


class TestPropagatorRegistry:
    def test_builtin_engines_registered(self):
        assert PROPAGATORS.names() == ["batched", "scalar"]

    def test_default_is_batched(self):
        assert default_propagator_name() == "batched"
        assert get_propagator() is BatchedAcousticSimulator2D

    def test_resolve_by_name_and_factory(self):
        assert get_propagator("scalar") is AcousticSimulator2D
        assert get_propagator(AcousticSimulator2D) is AcousticSimulator2D

    def test_env_var_override(self, monkeypatch):
        monkeypatch.setenv("QUGEO_PROPAGATOR", "scalar")
        assert default_propagator_name() == "scalar"
        assert get_propagator() is AcousticSimulator2D

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownNameError):
            get_propagator("bogus")
        with pytest.raises(TypeError):
            get_propagator(123)

    def test_register_unregister_roundtrip(self):
        with pytest.raises(DuplicateNameError):
            PROPAGATORS.register("scalar", lambda: AcousticSimulator2D)
        PROPAGATORS.register("scalar", lambda: BatchedAcousticSimulator2D,
                             replace=True)
        try:
            assert get_propagator("scalar") is BatchedAcousticSimulator2D
        finally:
            PROPAGATORS.register("scalar", lambda: AcousticSimulator2D,
                                 replace=True)
        assert get_propagator("scalar") is AcousticSimulator2D
        assert PROPAGATORS.names() == ["batched", "scalar"]

    @pytest.mark.parametrize("name", PROPAGATORS.names())
    def test_registered_engine_matches_scalar_reference(self, name):
        velocity = _layered_velocity(seed=21)
        config = _config(n_steps=50)
        wavelet = ricker_wavelet(config.n_steps, config.dt, 12.0)
        scalar = AcousticSimulator2D(velocity, config)
        reference = np.stack([
            scalar.simulate_shot(src, wavelet, RECEIVERS) for src in SOURCES])
        gather = get_propagator(name)(velocity, config).simulate_shots(
            SOURCES, wavelet, RECEIVERS)
        assert np.abs(reference).max() > 1e-3
        np.testing.assert_allclose(gather, reference, atol=1e-10, rtol=0)


class TestForwardModelBatched:
    def test_scalar_and_batched_engines_agree(self):
        velocity = _layered_velocity(seed=9)
        scalar = _forward_model(propagator="scalar").model_shots(velocity)
        batched = _forward_model(propagator="batched").model_shots(velocity)
        np.testing.assert_allclose(batched, scalar, atol=1e-10, rtol=0)

    def test_model_shots_batch_matches_per_map(self):
        velocities = np.stack([_layered_velocity(seed) for seed in (11, 13, 17, 19)])
        model = _forward_model()
        per_map = np.stack([model.model_shots(v) for v in velocities])
        stacked = model.model_shots_batch(velocities)
        chunked = model.model_shots_batch(velocities, chunk_size=3)
        assert stacked.shape == (4, 3, 50, 12)
        np.testing.assert_allclose(stacked, per_map, atol=1e-10, rtol=0)
        np.testing.assert_allclose(chunked, per_map, atol=1e-10, rtol=0)

    def test_model_shots_batch_scalar_fallback(self):
        velocities = np.stack([_layered_velocity(seed) for seed in (11, 13)])
        batched = _forward_model().model_shots_batch(velocities)
        fallback = _forward_model(propagator="scalar").model_shots_batch(velocities)
        np.testing.assert_allclose(fallback, batched, atol=1e-10, rtol=0)

    def test_model_shots_batch_rejects_2d(self):
        with pytest.raises(ValueError):
            _forward_model().model_shots_batch(_layered_velocity(1))

    def test_model_shots_batch_rejects_empty_stack(self):
        with pytest.raises(ValueError, match="at least one model"):
            _forward_model().model_shots_batch(np.empty((0, 24, 24)))


class TestPerShotNormalization:
    def test_every_shot_normalised_to_unit_peak(self):
        """Regression: shots of different amplitudes each peak at 1."""
        velocity = _layered_velocity(seed=21)
        data = _forward_model().model_shots(velocity)
        peaks = np.max(np.abs(data), axis=(1, 2))
        np.testing.assert_allclose(peaks, np.ones(data.shape[0]), atol=1e-12)

    def test_normalize_per_shot_scales_each_shot(self):
        data = np.zeros((3, 4, 5))
        data[0, 1, 2] = 2.0
        data[1, 0, 0] = -8.0
        # shot 2 stays all-zero
        result = normalize_per_shot(data)
        assert result[0, 1, 2] == pytest.approx(1.0)
        assert result[1, 0, 0] == pytest.approx(-1.0)
        np.testing.assert_array_equal(result[2], np.zeros((4, 5)))
        assert np.all(np.isfinite(result))

    def test_normalize_per_shot_batched_layout(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(2, 3, 6, 4)) * rng.uniform(0.1, 10.0, size=(2, 3, 1, 1))
        result = normalize_per_shot(data)
        peaks = np.max(np.abs(result), axis=(-2, -1))
        np.testing.assert_allclose(peaks, np.ones((2, 3)), atol=1e-12)

    def test_normalize_per_shot_rejects_scalars(self):
        with pytest.raises(ValueError):
            normalize_per_shot(np.zeros(4))


class TestSpongeMaskBroadcast:
    def test_batched_shape_builds_trailing_grid_mask(self):
        boundary = SpongeBoundary(width=5)
        flat = boundary.build_mask((40, 40))
        batched = boundary.build_mask((3, 40, 40))
        stacked = boundary.build_mask((2, 3, 40, 40))
        assert batched.shape == (40, 40)
        assert stacked.shape == (40, 40)
        np.testing.assert_array_equal(batched, flat)

    def test_apply_broadcasts_over_batch_axis(self):
        boundary = SpongeBoundary(width=5)
        mask = boundary.build_mask((3, 40, 40))
        fields = np.random.default_rng(1).normal(size=(3, 40, 40))
        expected = np.stack([f * mask for f in fields])
        damped = boundary.apply(fields.copy(), mask)
        np.testing.assert_allclose(damped, expected)

    def test_rejects_sub_2d_shape(self):
        with pytest.raises(ValueError):
            SpongeBoundary(width=2).build_mask((40,))


class TestCflUpFront:
    def test_unstable_user_dt_raises_before_simulation(self):
        velocity = np.full((20, 20), 4000.0)
        with pytest.raises(ValueError, match="CFL"):
            forward_model_shot_gather(velocity, n_sources=1, n_steps=10,
                                      dx=1.0, dt=0.01)

    def test_stable_time_step_matches_config_helper(self):
        config = SimulationConfig(dx=10.0, dz=10.0, n_steps=10)
        assert stable_time_step(4500.0, dx=10.0) == pytest.approx(
            config.stable_dt(4500.0))

    def test_stable_time_step_validation(self):
        with pytest.raises(ValueError):
            stable_time_step(4500.0, dx=10.0, spatial_order=3)
        with pytest.raises(ValueError):
            stable_time_step(-1.0, dx=10.0)


class TestKernelParityMatrix:
    """Every registered time-loop kernel x dtype agrees with the scalar
    reference (kernels whose optional dependency is missing are skipped,
    mirroring the optional-engine treatment in tests/test_backends.py)."""

    F32_ATOL = 1e-4

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("kernel", KERNELS.names())
    def test_kernel_matches_scalar_reference(self, kernel, dtype):
        if not KERNELS.available(kernel):
            pytest.skip(f"kernel {kernel!r} is unavailable here")
        velocity = _layered_velocity(7)
        config = _config(n_steps=60)
        wavelet = ricker_wavelet(60, config.dt, 12.0)
        scalar = AcousticSimulator2D(velocity, config)
        reference = np.stack([
            scalar.simulate_shot(src, wavelet, RECEIVERS) for src in SOURCES])
        gather = BatchedAcousticSimulator2D(
            velocity, config, policy=dtype, kernel=kernel).simulate_shots(
                SOURCES, wavelet, RECEIVERS)
        atol = 1e-10 if dtype == "float64" else self.F32_ATOL
        assert np.abs(reference).max() > 1e-3
        np.testing.assert_allclose(gather, reference, atol=atol, rtol=0.0)

    def test_forward_model_threads_kernel_selection(self):
        survey = SurveyGeometry(n_sources=2, n_receivers=12, nx=24)
        velocity = _layered_velocity(3)
        base = ForwardModel(survey=survey, config=_config(n_steps=50))
        explicit = ForwardModel(survey=survey, config=_config(n_steps=50),
                                kernel="python")
        np.testing.assert_array_equal(base.model_shots(velocity),
                                      explicit.model_shots(velocity))

    def test_forward_model_rejects_kernel_on_scalar_engine(self):
        survey = SurveyGeometry(n_sources=1, n_receivers=12, nx=24)
        model = ForwardModel(survey=survey, config=_config(n_steps=20),
                             propagator="scalar", kernel="python")
        with pytest.raises(ValueError, match="kernel"):
            model.model_shots(_layered_velocity(3))


class TestRecordEveryDecimation:
    def test_decimated_gather_is_a_stride_of_the_full_gather(self):
        velocity = _layered_velocity(11)
        full_config = _config(n_steps=60)
        wavelet = ricker_wavelet(60, full_config.dt, 12.0)
        full = BatchedAcousticSimulator2D(
            velocity, full_config).simulate_shots(SOURCES, wavelet, RECEIVERS)
        decimated_config = dataclasses.replace(full_config, record_every=5)
        assert decimated_config.n_recorded == 12
        assert decimated_config.effective_dt == pytest.approx(
            5 * full_config.dt)
        decimated = BatchedAcousticSimulator2D(
            velocity, decimated_config).simulate_shots(SOURCES, wavelet,
                                                       RECEIVERS)
        assert decimated.shape == (3, 12, len(RECEIVERS))
        np.testing.assert_array_equal(decimated, full[:, ::5, :])

    def test_scalar_engine_decimates_identically(self):
        velocity = _layered_velocity(11)
        config = dataclasses.replace(_config(n_steps=60), record_every=4)
        wavelet = ricker_wavelet(60, config.dt, 12.0)
        scalar = AcousticSimulator2D(velocity, config)
        reference = np.stack([
            scalar.simulate_shot(src, wavelet, RECEIVERS) for src in SOURCES])
        batched = BatchedAcousticSimulator2D(
            velocity, config).simulate_shots(SOURCES, wavelet, RECEIVERS)
        assert reference.shape == (3, 15, len(RECEIVERS))
        np.testing.assert_allclose(batched, reference, atol=1e-10, rtol=0.0)

    def test_record_every_validation(self):
        with pytest.raises(ValueError, match="record_every"):
            SimulationConfig(n_steps=10, record_every=0)
        with pytest.raises(ValueError, match="record_every"):
            SimulationConfig(n_steps=10, record_every=1.5)

    def test_nyquist_stride_bounds(self):
        config = _config(n_steps=60)
        stride = nyquist_record_stride(config.dt, 15.0)
        assert stride >= 1
        # The stride must keep the sampling rate above the oversampled
        # band-edge Nyquist rate.
        assert 1.0 / (config.dt * stride) >= 2 * 2.0 * 3.0 * 15.0
        assert nyquist_record_stride(1e-3, 15.0) == 5
        assert nyquist_record_stride(0.5, 15.0) == 1  # never below 1
