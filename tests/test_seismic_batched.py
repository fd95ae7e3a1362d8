"""Tests for the batched multi-shot acoustic propagator.

The batched engine must reproduce the scalar reference
:class:`AcousticSimulator2D` (well inside the 1e-10 acceptance tolerance) on
random layered models across every supported spatial order, with and without
wavefield recording, and on the multi-velocity-model path used by dataset
generation.  Two oracles share no code with either engine: the Laplacian's
convergence order against a closed form, and a trace against the 2-D
Green's function of the wave equation.
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
    flat_layer_model,
    forward_model_shot_gather,
    normalize_per_shot,
    nyquist_record_stride,
    ricker_wavelet,
    stable_time_step,
)
from repro.seismic.propagators import default_propagator_name


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


def _forward_model(normalize=True):
    survey = SurveyGeometry(n_sources=3, n_receivers=12, nx=24)
    return ForwardModel(survey=survey, config=_config(n_steps=50),
                        normalize=normalize)


def _scalar_shots(model, velocity):
    """``model.model_shots(velocity)`` run on the scalar reference engine."""
    data = AcousticSimulator2D(velocity, model.config).simulate_shots(
        model.survey.source_positions(), model.source_wavelet(),
        model.survey.receiver_positions())
    return normalize_per_shot(data) if model.normalize else data


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

    def test_three_pass_update_matches_scalar(self):
        """The in-place three-pass leap-frog update holds parity."""
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


class TestAnalyticGreensFunctionOracle:
    """One trace against the closed-form 2-D wave solution.

    The injection ``c^2 dt^2 / (dx dz) * w`` at one cell discretises
    ``p_tt - c^2 lap(p) = c^2 w(t) delta(x)``, whose solution at distance
    ``r`` is ``w`` convolved with ``c / (2 pi sqrt(c^2 t^2 - r^2))`` for
    ``t > r / c``.  Substituting ``t' = (r / c) cosh(u)`` removes the
    singularity: ``p(t) = 1/(2 pi) int_0^acosh(ct/r) w(t - r cosh(u)/c) du``.
    Gather row ``n`` holds the field after step ``n``, at ``(n + 1) dt``.
    The grid is wide enough that no edge reflection reaches the receiver
    inside the window.
    """

    C, DX, F = 2000.0, 5.0, 15.0
    N, OFFSET = 121, 24

    def _ricker(self, t):
        arg = (np.pi * self.F * (t - 1.5 / self.F)) ** 2
        return np.where(t >= 0.0, (1.0 - 2.0 * arg) * np.exp(-arg), 0.0)

    def _analytic(self, times, r):
        trace = np.zeros(times.size)
        for i, t in enumerate(times):
            if self.C * t > r:
                u = np.linspace(0.0, np.arccosh(self.C * t / r), 2001)
                w = self._ricker(t - r * np.cosh(u) / self.C)
                # Trapezoid rule on the uniform u grid.
                trace[i] = ((w.sum() - 0.5 * (w[0] + w[-1])) * (u[1] - u[0])
                            / (2.0 * np.pi))
        return trace

    def test_trace_matches_greens_function(self):
        dt = stable_time_step(self.C, dx=self.DX, spatial_order=4)
        half = self.N // 2
        # Earliest edge reflection: source -> nearest edge -> receiver.
        reflection_t = (2 * half - self.OFFSET) * self.DX / self.C
        n_steps = int(0.95 * reflection_t / dt)
        config = SimulationConfig(dx=self.DX, dz=self.DX, dt=dt,
                                  n_steps=n_steps, spatial_order=4,
                                  boundary=SpongeBoundary(width=10))
        wavelet = ricker_wavelet(n_steps, dt, self.F)
        trace = BatchedAcousticSimulator2D(
            np.full((self.N, self.N), self.C), config).simulate_shots(
                [(half, half)], wavelet, [(half, half + self.OFFSET)])[0, :, 0]
        analytic = self._analytic((np.arange(n_steps) + 1) * dt,
                                  self.OFFSET * self.DX)

        lag = np.argmax(np.correlate(trace, analytic, "full")) - (n_steps - 1)
        correlation = trace @ analytic / np.sqrt(
            (trace @ trace) * (analytic @ analytic))
        assert abs(lag) <= 1
        assert correlation >= 0.99
        assert np.abs(trace).max() / np.abs(analytic).max() == pytest.approx(
            1.0, rel=0.05)


class TestPropagatorRegistry:
    def test_default_is_batched(self):
        assert default_propagator_name() == "batched"


class TestForwardModelBatched:
    def test_scalar_and_batched_engines_agree(self):
        velocity = _layered_velocity(seed=9)
        model = _forward_model()
        np.testing.assert_allclose(model.model_shots(velocity),
                                   _scalar_shots(model, velocity),
                                   atol=1e-10, rtol=0)

    def test_model_shots_batch_matches_per_map(self):
        velocities = np.stack([_layered_velocity(seed) for seed in (11, 13, 17, 19)])
        model = _forward_model()
        per_map = np.stack([model.model_shots(v) for v in velocities])
        stacked = model.model_shots_batch(velocities)
        chunked = model.model_shots_batch(velocities, chunk_size=3)
        assert stacked.shape == (4, 3, 50, 12)
        np.testing.assert_allclose(stacked, per_map, atol=1e-10, rtol=0)
        np.testing.assert_allclose(chunked, per_map, atol=1e-10, rtol=0)

    def test_model_shots_batch_matches_scalar_per_map(self):
        velocities = np.stack([_layered_velocity(seed) for seed in (11, 13)])
        model = _forward_model()
        reference = np.stack([_scalar_shots(model, v) for v in velocities])
        np.testing.assert_allclose(model.model_shots_batch(velocities),
                                   reference, atol=1e-10, rtol=0)

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
