"""Tests for the batched multi-shot acoustic propagator.

The batched engine (the fused C time loop) must reproduce the scalar
reference :class:`AcousticSimulator2D` bit for bit, ``array_equal``, on
random layered models across every supported spatial order: with and
without wavefield recording, with a recording stride, with a time step per
model, with sources and receivers on the grid's corners and edges, and on
grids narrower than the stencil.  Two oracles share no code with either
engine: the Laplacian's convergence order against a closed form, and a
trace against the 2-D Green's function of the wave equation.  Where no C
compiler is available the propagator runs the oracle itself; a test
removes the compiler to check that path.
"""

import ctypes
import dataclasses
import functools
import os
import shutil

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
from repro.backends import kernels as quantum_kernels
from repro.seismic import kernels
from repro.seismic.acoustic2d import _LAPLACIAN_COEFFS
from repro.seismic.propagators import default_propagator_name
from repro.telemetry import capture
from repro.utils import native

#: The tests that exercise the compiled loop itself; a host without a C
#: compiler runs the oracle fallback, which ``TestOracleFallback`` covers.
needs_cc = pytest.mark.skipif(shutil.which("cc") is None,
                              reason="no C compiler on this host")


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
        np.testing.assert_array_equal(result, reference)

    @pytest.mark.parametrize("order", [2, 4, 8])
    def test_wavefield_snapshots_match(self, order):
        velocity = _layered_velocity(seed=10 + order)
        config = _config(n_steps=40, order=order)
        wavelet = ricker_wavelet(config.n_steps, config.dt, 12.0)
        ref_gather, ref_snaps = AcousticSimulator2D(velocity, config).simulate_shots(
            SOURCES, wavelet, RECEIVERS, record_wavefield=True, wavefield_stride=10)
        gather, snaps = BatchedAcousticSimulator2D(velocity, config).simulate_shots(
            SOURCES, wavelet, RECEIVERS, record_wavefield=True, wavefield_stride=10)
        np.testing.assert_array_equal(gather, ref_gather)
        assert len(snaps) == len(ref_snaps) == 4
        for snap, ref in zip(snaps, ref_snaps):
            assert snap.shape == (len(SOURCES), 24, 24)
            np.testing.assert_array_equal(snap, ref)

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
            np.testing.assert_array_equal(result[m], reference)

    @pytest.mark.parametrize("order", [2, 4, 8])
    @pytest.mark.parametrize("shape", [(70, 70), (50, 60)],
                             ids=["70x70", "50x60"])
    def test_band_blocked_grids_match_scalar_reference(self, shape, order):
        """Benchmark-sized grids, single map and stacked.

        Sources sit near the top, centre and bottom-right corner, so after
        80 steps the wavefield crosses the interior and all four borders.
        """
        nz, nx = shape
        sources = [(1, 3), (nz // 2, nx // 2), (nz - 8, nx - 4)]
        receivers = ([(1, c) for c in range(0, nx, 5)]
                     + [(r, nx // 3) for r in range(0, nz, 7)])
        velocities = np.stack([_layered_velocity(seed, shape)
                               for seed in (order, order + 1)])
        config = _config(n_steps=80, order=order)
        wavelet = ricker_wavelet(config.n_steps, config.dt, 12.0)
        single = BatchedAcousticSimulator2D(velocities[0], config)
        stacked = BatchedAcousticSimulator2D(velocities, config)
        single_result = single.simulate_shots(sources, wavelet, receivers)
        stacked_result = stacked.simulate_shots(sources, wavelet, receivers)
        assert stacked_result.shape == (2, 3, config.n_steps, len(receivers))
        for m, velocity in enumerate(velocities):
            reference = AcousticSimulator2D(velocity, config).simulate_shots(
                sources, wavelet, receivers)
            assert np.abs(reference).max() > 0.1
            np.testing.assert_array_equal(stacked_result[m], reference)
            if m == 0:
                np.testing.assert_array_equal(single_result, reference)

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
            np.testing.assert_array_equal(batched[s], reference)

    def test_three_pass_update_matches_scalar(self):
        """The three-term update ``(2 curr - prev) + c2dt2 lap`` holds parity."""
        velocity = _layered_velocity(seed=6)
        config = _config(n_steps=50)
        wavelet = ricker_wavelet(config.n_steps, config.dt, 12.0)
        batched = BatchedAcousticSimulator2D(velocity, config)
        result = batched.simulate_shots(SOURCES, wavelet, RECEIVERS)
        reference = AcousticSimulator2D(velocity, config).simulate_shots(
            SOURCES, wavelet, RECEIVERS)
        np.testing.assert_array_equal(result, reference)

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


def _engine_laplacian(field, config):
    """The Laplacian of ``field`` as the propagator's loop computes it.

    One step of the compiled loop from ``prev = 2 field``, ``curr = field``
    with ``c^2 dt^2 = 1``, no damping and no source amplitude leaves
    ``(2 field - 2 field) + 1 * lap = lap`` exactly in the scratch slot.
    Without a C compiler the oracle's own Laplacian, which the fallback
    runs, is measured instead.
    """
    nz, nx = field.shape
    entry = kernels.load_kernel()
    if entry is None:
        return AcousticSimulator2D(np.ones((nz, nx)), config)._laplacian(
            field).copy()
    coeffs = _LAPLACIAN_COEFFS[config.spatial_order]
    fields = np.stack([2.0 * field, field, np.zeros_like(field)])[None]
    kernels.leapfrog(entry, fields, np.ones((1, nz, nx)), np.ones((nz, nx)),
                     coeffs / config.dz**2, coeffs / config.dx**2,
                     np.zeros(1, dtype=np.int64), np.zeros((1, 1)),
                     np.zeros(0, dtype=np.int64), np.empty((1, 1, 0)),
                     np.empty((0, 1, nz, nx)), 1, 0)
    return fields[0, 2]


class TestLaplacianConvergenceOracle:
    """The propagator's Laplacian against a closed form, not another
    propagator.

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
        lap = _engine_laplacian(field, config)
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
        np.testing.assert_array_equal(model.model_shots(velocity),
                                      _scalar_shots(model, velocity))

    def test_model_shots_batch_matches_per_map(self):
        velocities = np.stack([_layered_velocity(seed) for seed in (11, 13, 17, 19)])
        model = _forward_model()
        per_map = np.stack([model.model_shots(v) for v in velocities])
        stacked = model.model_shots_batch(velocities)
        chunked = model.model_shots_batch(velocities, chunk_size=3)
        assert stacked.shape == (4, 3, 50, 12)
        np.testing.assert_array_equal(stacked, per_map)
        np.testing.assert_array_equal(chunked, per_map)

    def test_model_shots_batch_matches_scalar_per_map(self):
        velocities = np.stack([_layered_velocity(seed) for seed in (11, 13)])
        model = _forward_model()
        reference = np.stack([_scalar_shots(model, v) for v in velocities])
        np.testing.assert_array_equal(model.model_shots_batch(velocities),
                                      reference)

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
    def test_rejects_sub_2d_shape(self):
        """The mask is built for one ``(nz, nx)`` grid; any other length,
        batched shapes included, is refused."""
        boundary = SpongeBoundary(width=2)
        assert boundary.build_mask((40, 40)).shape == (40, 40)
        for shape in ((40,), (3, 40, 40), (2, 3, 40, 40)):
            with pytest.raises(ValueError, match=r"\(nz, nx\)"):
                boundary.build_mask(shape)


def _distinct_peak_stack():
    """Three layered maps with distinct peak velocities and, for each, the
    CFL-stable step of its own peak.  Map 2 is faster than the 3500 m/s
    that :func:`_config`'s shared step is stable for."""
    velocities = np.stack([_layered_velocity(seed) for seed in (21, 22, 23)])
    velocities[1] *= 0.7
    velocities[2] *= 1.5
    steps = np.array([stable_time_step(float(v.max()), dx=10.0)
                      for v in velocities])
    return velocities, steps


class TestPerModelTimeStep:
    """An ``(n_models,)`` dt: every map propagates at its own time step."""

    def test_gathers_match_scalar_at_each_maps_own_step(self):
        velocities, steps = _distinct_peak_stack()
        assert len(set(steps)) == 3
        config = _config(n_steps=60)
        with pytest.raises(ValueError, match="CFL"):
            BatchedAcousticSimulator2D(velocities, config)
        wavelets = np.stack([ricker_wavelet(config.n_steps, step, 12.0)
                             for step in steps])
        per_model = np.broadcast_to(wavelets[:, None],
                                    (3, len(SOURCES), config.n_steps))
        result = BatchedAcousticSimulator2D(
            velocities, config, dt=steps).simulate_shots(
                SOURCES, per_model, RECEIVERS)
        assert result.shape == (3, len(SOURCES), config.n_steps,
                                len(RECEIVERS))
        for m, (velocity, step) in enumerate(zip(velocities, steps)):
            own = dataclasses.replace(config, dt=float(step))
            reference = AcousticSimulator2D(velocity, own).simulate_shots(
                SOURCES, wavelets[m], RECEIVERS)
            assert np.abs(reference).max() > 0.1
            np.testing.assert_array_equal(result[m], reference)

    def test_forward_model_matches_single_map_calls(self):
        velocities, steps = _distinct_peak_stack()
        model = _forward_model()
        stacked = model.model_shots_batch(velocities, chunk_size=2, dt=steps)
        for m, (velocity, step) in enumerate(zip(velocities, steps)):
            own = dataclasses.replace(
                model, config=dataclasses.replace(model.config,
                                                  dt=float(step)))
            assert np.array_equal(stacked[m], own.model_shots(velocity))

    def test_forward_model_shot_gather_stack_matches_single_maps(self):
        velocities, _ = _distinct_peak_stack()
        stacked = forward_model_shot_gather(velocities, n_sources=2,
                                            n_steps=40)
        assert stacked.shape == (3, 2, 40, 24)
        for gather, velocity in zip(stacked, velocities):
            assert np.array_equal(gather, forward_model_shot_gather(
                velocity, n_sources=2, n_steps=40))

    def test_rejects_bad_dt(self):
        velocities, steps = _distinct_peak_stack()
        config = _config(n_steps=5)
        for bad in (steps[:2], steps[:, None], steps[0]):
            with pytest.raises(ValueError, match="dt must have shape"):
                BatchedAcousticSimulator2D(velocities, config, dt=bad)
            with pytest.raises(ValueError, match="dt must have shape"):
                _forward_model().model_shots_batch(velocities, dt=bad)
        with pytest.raises(ValueError, match="velocity stack"):
            BatchedAcousticSimulator2D(velocities[0], config, dt=steps[:1])
        for bad in (0.0, -steps[1], np.nan, np.inf):
            with pytest.raises(ValueError, match="finite and strictly"):
                BatchedAcousticSimulator2D(
                    velocities, config, dt=np.array([steps[0], bad, steps[2]]))
        simulator = BatchedAcousticSimulator2D(velocities, config, dt=steps)
        with pytest.raises(ValueError, match="source_wavelet"):
            simulator.simulate_shots(SOURCES, np.zeros((2, len(SOURCES), 5)),
                                     RECEIVERS)

    def test_one_unstable_map_fails_the_batch(self):
        velocities, steps = _distinct_peak_stack()
        config = _config(n_steps=5)
        unstable = steps.copy()
        unstable[1] *= 1.5
        # Map 1 is the slowest, so the step is unstable for it alone.
        assert velocities[1].max() < velocities[[0, 2]].max()
        with pytest.raises(ValueError, match="CFL number .* of model 1 "):
            BatchedAcousticSimulator2D(velocities, config, dt=unstable)
        BatchedAcousticSimulator2D(velocities[[0, 2]], config,
                                   dt=unstable[[0, 2]])


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
        np.testing.assert_array_equal(batched, reference)

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


def _oracle_stack(velocities, config, steps, sources, wavelets, receivers,
                  stride):
    """Per-(model, shot) oracle gathers and snapshots, stacked like the
    batched engine's ``(n_models, n_shots, ...)`` output."""
    gathers, snapshots = [], []
    for velocity, step, wavelet in zip(velocities, steps, wavelets):
        own = dataclasses.replace(config, dt=float(step))
        gather, snaps = AcousticSimulator2D(velocity, own).simulate_shots(
            sources, wavelet, receivers, record_wavefield=True,
            wavefield_stride=stride)
        gathers.append(gather)
        snapshots.append(snaps)
    return (np.stack(gathers),
            [np.stack(snaps) for snaps in zip(*snapshots)])


class TestBitParityCoverage:
    """``array_equal`` with the oracle where the loop's clamped border, its
    unclamped interior and its source cell meet, with every option on at
    once: a per-model ``dt``, a recording stride and wavefield snapshots."""

    @staticmethod
    def _assert_bit_equal(shape, order, sources, receivers, width=1):
        nz, nx = shape
        rng = np.random.default_rng(nz * 100 + nx + order)
        velocities = rng.uniform(1500.0, 3500.0, size=(2, nz, nx))
        steps = np.array([stable_time_step(float(v.max()), dx=10.0,
                                           spatial_order=order)
                          for v in velocities])
        config = SimulationConfig(dx=10.0, dz=10.0, dt=float(steps[0]),
                                  n_steps=41, spatial_order=order,
                                  boundary=SpongeBoundary(width=width),
                                  record_every=3)
        wavelets = rng.standard_normal((2, len(sources), 30))
        gather, snaps = BatchedAcousticSimulator2D(
            velocities, config, dt=steps).simulate_shots(
                sources, wavelets, receivers, record_wavefield=True,
                wavefield_stride=4)
        ref_gather, ref_snaps = _oracle_stack(velocities, config, steps,
                                              sources, wavelets, receivers, 4)
        assert gather.shape == (2, len(sources), 14, len(receivers))
        assert np.abs(ref_gather).max() > 0
        np.testing.assert_array_equal(gather, ref_gather)
        assert len(snaps) == len(ref_snaps) == 11
        for snap, ref in zip(snaps, ref_snaps):
            np.testing.assert_array_equal(snap, ref)

    @pytest.mark.parametrize("order", [2, 4, 8])
    def test_corner_and_edge_sources_and_receivers(self, order):
        nz, nx = 19, 23
        corners = [(0, 0), (0, nx - 1), (nz - 1, 0), (nz - 1, nx - 1)]
        edges = [(0, nx // 2), (nz // 2, 0), (nz - 1, 7), (5, nx - 1),
                 (1, 1), (nz - 2, nx - 3)]
        self._assert_bit_equal((nz, nx), order, corners + edges,
                               edges + corners + [(nz // 2, nx // 2)],
                               width=3)

    @pytest.mark.parametrize("order", [2, 4, 8])
    @pytest.mark.parametrize("shape", [(5, 40), (40, 5), (3, 3), (7, 9)],
                             ids=["5x40", "40x5", "3x3", "7x9"])
    def test_grids_narrower_than_the_stencil(self, shape, order):
        """At order 8 every one of these grids has an axis shorter than the
        nine-tap stencil, so some rows or columns have no interior."""
        nz, nx = shape
        sources = [(0, 0), (nz - 1, nx - 1), (nz // 2, nx // 2)]
        receivers = [(0, nx - 1), (nz - 1, 0), (nz // 2, nx // 2)]
        self._assert_bit_equal(shape, order, sources, receivers)

    @pytest.mark.parametrize("order", [2, 4, 8])
    @pytest.mark.parametrize("nx", [3, 5, 9, 17, 31, 33, 71])
    def test_row_widths_and_vector_tails(self, nx, order):
        """Every row is one loop over all ``nx`` columns, read off a padded
        copy of the row.  These widths leave every remainder of a 4- and an
        8-lane vector loop, and at order 8 the narrow ones are shorter than
        the stencil, so a row's padding reaches past its other end."""
        nz = 6
        sources = [(0, 0), (nz - 1, nx - 1), (nz // 2, nx // 2)]
        receivers = [(0, nx - 1), (nz - 1, 0), (2, nx - 2), (1, 1)]
        self._assert_bit_equal((nz, nx), order, sources, receivers)


def _group_lanes(shape):
    """The most wavefields one lane group of the compiled loop holds on a
    grid of ``shape``."""
    return int(kernels.load_library().qugeo_group_lanes(*shape))


def _lane_case(shape, order, n_models, sources, receivers, seed=0):
    """Gathers and snapshots of ``n_models`` random maps, each at its own
    CFL step and with its own wavelets, from the propagator and from the
    oracle, with a recording stride and snapshots on.  The first maps and
    wavelets of a case are those of every larger case with its seed."""
    nz, nx = shape
    velocities = np.random.default_rng(seed).uniform(
        1500.0, 3500.0, size=(n_models, nz, nx))
    steps = np.array([stable_time_step(float(v.max()), dx=10.0,
                                       spatial_order=order)
                      for v in velocities])
    config = SimulationConfig(dx=10.0, dz=10.0, dt=float(steps[0]),
                              n_steps=23, spatial_order=order,
                              boundary=SpongeBoundary(width=3),
                              record_every=2)
    wavelets = np.random.default_rng(seed + 1).standard_normal(
        (n_models, len(sources), 15))
    engine = BatchedAcousticSimulator2D(velocities, config, dt=steps)
    reference = functools.partial(_oracle_stack, velocities, config, steps,
                                  sources, wavelets, receivers, 5)
    return (engine.simulate_shots(sources, wavelets, receivers,
                                  record_wavefield=True, wavefield_stride=5),
            reference)


def _assert_same(result, expected):
    (gather, snaps), (ref_gather, ref_snaps) = result, expected
    assert np.abs(ref_gather).max() > 0
    np.testing.assert_array_equal(gather, ref_gather)
    assert len(snaps) == len(ref_snaps) == 5
    for snap, ref in zip(snaps, ref_snaps):
        np.testing.assert_array_equal(snap, ref)


#: A corner source, and receivers on every corner and edge.
CORNER_SOURCE = [(0, 0)]


def _edge_receivers(nz, nx):
    return [(0, 0), (0, nx - 1), (nz - 1, 0), (nz - 1, nx - 1),
            (0, nx // 2), (nz // 2, 0), (nz - 1, nx // 3), (nz // 3, nx - 1),
            (nz // 2, nx // 2)]


@needs_cc
class TestLaneGroups:
    """The compiled loop stores a call's wavefields innermost, in lane
    groups sized by the grid, so the lanes of a group share every row loop.
    Each lane must still give the oracle's bits, whatever the group's width
    and whatever its neighbours run: other maps at other time steps, other
    sources."""

    @pytest.mark.parametrize("order", [2, 4, 8])
    @pytest.mark.parametrize("shape", [(40, 40), (96, 80)],
                             ids=["40x40", "96x80"])
    def test_every_wavefield_count(self, shape, order):
        """Counts 1 to twice the widest group plus one: one group of every
        width, then two and three groups, equal and unequal.  Each
        wavefield runs its own map at its own time step, so every group
        mixes time steps."""
        widest = _group_lanes(shape)
        assert 1 < widest < 40
        n_max = 2 * widest + 1
        receivers = _edge_receivers(*shape)
        (gather, snaps), reference = _lane_case(
            shape, order, n_max, CORNER_SOURCE, receivers)
        ref_gather, ref_snaps = reference()
        _assert_same((gather, snaps), (ref_gather, ref_snaps))
        for count in range(1, n_max):
            result, _ = _lane_case(shape, order, count, CORNER_SOURCE,
                                   receivers)
            _assert_same(result, (ref_gather[:count],
                                  [snap[:count] for snap in ref_snaps]))

    @pytest.mark.parametrize("order", [2, 4, 8])
    def test_edge_and_corner_shots_across_groups(self, order):
        """Ten shots on corners and edges over three maps: 30 wavefields
        in two groups, each mixing maps, time steps and sources."""
        nz, nx = 40, 40
        assert 15 <= _group_lanes((nz, nx)) < 30
        sources = [(0, 0), (0, nx - 1), (nz - 1, 0), (nz - 1, nx - 1),
                   (0, nx // 2), (nz // 2, 0), (nz - 1, 7), (5, nx - 1),
                   (1, 1), (nz - 2, nx - 3)]
        result, reference = _lane_case((nz, nx), order, 3, sources,
                                       _edge_receivers(nz, nx), seed=order)
        _assert_same(result, reference())


def _probe_copy(number):
    """The status of a one-step call on a 4x4 grid, the loop forced to run
    copy ``number`` of its row sweep."""
    nz = nx = 4
    return kernels.load_library().qugeo_leapfrog_copy(
        number, np.zeros((1, 3, nz, nx)), np.ones((1, nz, nx)),
        np.ones((nz, nx)), np.ones(3), np.ones(3),
        np.zeros(1, dtype=np.int64), np.zeros((1, 1)),
        np.zeros(0, dtype=np.int64), np.empty((1, 1, 0)),
        np.empty((0, 1, nz, nx)), 1, 1, nz, nx, 3, 1, 1, 0, 0)


def _copy_entry(copy):
    """The compiled loop forced to run ``copy`` of its row sweep; skips
    the test where this CPU cannot run it."""
    number = kernels.COPIES.index(copy)
    status = _probe_copy(number)
    if status == -3:
        pytest.skip(f"this CPU cannot run the {copy} copy")
    assert status == 0
    return functools.partial(kernels.load_library().qugeo_leapfrog_copy,
                             number)


@needs_cc
class TestEveryCopy:
    """Every SIMD copy of the row sweep this CPU can run gives the oracle's
    bits, not only the one the loop picks."""

    @pytest.mark.parametrize("order", [2, 4, 8])
    @pytest.mark.parametrize("copy", kernels.COPIES)
    def test_copy_matches_oracle(self, copy, order, monkeypatch):
        entry = _copy_entry(copy)
        monkeypatch.setattr(kernels, "load_kernel", lambda: entry)
        for shape, n_models in (((40, 40), 17), ((96, 80), 7), ((7, 33), 5)):
            result, reference = _lane_case(
                shape, order, n_models, CORNER_SOURCE,
                _edge_receivers(*shape), seed=n_models)
            _assert_same(result, reference())

    def test_unknown_copy_is_refused(self):
        """A copy number outside ``COPIES`` returns -3, as a copy the CPU
        lacks does."""
        assert _probe_copy(-1) == _probe_copy(len(kernels.COPIES)) == -3

    def test_resolved_copy_is_the_widest_this_cpu_runs(self):
        runnable = [copy for number, copy in enumerate(kernels.COPIES)
                    if _probe_copy(number) == 0]
        kernel, _ = kernels.resolve_kernel()
        assert kernel.isa == runnable[-1]
        assert runnable == list(kernels.COPIES[:len(runnable)])

    def test_load_counts_each_librarys_copy_once(self, monkeypatch):
        monkeypatch.setattr(native, "_loaded", {})
        with capture("summary") as telemetry:
            kernels.load_kernel()
            kernels.load_kernel()
            quantum_kernels.load_library()
            counters = telemetry.snapshot()["counters"]
        copies = {name: value for name, value in counters.items()
                  if name.startswith("native.")}
        isa = kernels.resolve_kernel()[0].isa
        engine_isa = native.isa(quantum_kernels.load_library())
        assert engine_isa in ("generic", "avx2")
        assert copies == {f"native.leapfrog.{isa}": 1,
                          f"native.statevector.{engine_isa}": 1}


class TestOracleFallback:
    """Without a C compiler the propagator warns once, counts the fallback
    and runs the oracle, which gives the same bits."""

    @needs_cc
    def test_missing_compiler_runs_the_oracle(self, monkeypatch):
        velocities, steps = _distinct_peak_stack()
        config = _config(n_steps=30)
        wavelets = np.stack([ricker_wavelet(30, step, 12.0)
                             for step in steps])[:, None].repeat(3, axis=1)

        def run():
            return BatchedAcousticSimulator2D(
                velocities, config, dt=steps).simulate_shots(
                    SOURCES, wavelets, RECEIVERS, record_wavefield=True,
                    wavefield_stride=7)

        assert kernels.resolve_kernel()[0].name == "c"
        compiled_gather, compiled_snaps = run()
        monkeypatch.setattr(native, "_COMPILER", "qugeo-no-such-cc")
        monkeypatch.setattr(native, "_loaded", {})
        with capture("summary") as telemetry:
            with pytest.warns(RuntimeWarning, match="qugeo-no-such-cc"):
                gather, snaps = run()
            run()
            counters = telemetry.snapshot()["counters"]
        assert counters["propagator.fallback"] == 2
        kernel, reason = kernels.resolve_kernel()
        assert kernel.name == "python" and "qugeo-no-such-cc" in reason
        np.testing.assert_array_equal(gather, compiled_gather)
        assert len(snaps) == len(compiled_snaps) == 5
        for snap, ref in zip(snaps, compiled_snaps):
            np.testing.assert_array_equal(snap, ref)


@needs_cc
class TestCompileCache:
    """The library is cached under ``~/.cache/qugeo`` and loaded from there
    only if the directory and the file are the user's alone.

    These tests run the propagator's ``leapfrog.c``;
    :class:`TestCompileCacheStatevector` runs them again on the quantum
    engine's ``statevector.c``, so the one loader both share
    (:mod:`repro.utils.native`) is tested on both C sources.
    """

    #: The source under test, how to load it and its compile span.
    SOURCE = kernels._SOURCE
    LOAD = staticmethod(kernels.load_kernel)
    SPAN = "propagator.compile"

    def _load(self, monkeypatch, home):
        """Load the library afresh with ``home`` as ``~``; the loaded
        paths and whether it compiled."""
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.setattr(native, "_loaded", {})
        opened = []
        real_cdll = ctypes.CDLL

        def cdll(path, *args, **kwargs):
            opened.append(path)
            return real_cdll(path, *args, **kwargs)

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        with capture("summary") as telemetry:
            entry = self.LOAD()
            spans = telemetry.snapshot()["spans"]
        monkeypatch.setattr(ctypes, "CDLL", real_cdll)
        assert entry is not None
        return opened, any(path.endswith(self.SPAN) for path in spans)

    def _cached_library(self, monkeypatch, home):
        opened, compiled = self._load(monkeypatch, home)
        cache = home / ".cache" / "qugeo"
        (library,) = cache.glob(f"{self.SOURCE.stem}-*.so")
        assert compiled and opened == [str(library)]
        assert cache.stat().st_mode & 0o077 == 0
        return library

    def test_second_load_hits_the_cache(self, monkeypatch, tmp_path):
        library = self._cached_library(monkeypatch, tmp_path)
        opened, compiled = self._load(monkeypatch, tmp_path)
        assert not compiled and opened == [str(library)]

    @pytest.mark.parametrize("plant", ["group_writable", "world_writable",
                                       "foreign_owner"])
    def test_planted_library_is_never_loaded(self, monkeypatch, tmp_path,
                                             plant):
        name = self._cached_library(monkeypatch, tmp_path / "own").name
        cache = tmp_path / "planted" / ".cache" / "qugeo"
        cache.mkdir(parents=True)
        planted = cache / name
        planted.write_bytes(b"not a library")
        cache.chmod({"group_writable": 0o770,
                     "world_writable": 0o777}.get(plant, 0o700))
        if plant == "foreign_owner":
            uid = os.getuid() + 1
            monkeypatch.setattr(os, "getuid", lambda: uid)
        opened, compiled = self._load(monkeypatch, tmp_path / "planted")
        assert compiled and len(opened) == 1 and opened[0] != str(planted)
        assert planted.read_bytes() == b"not a library"

    def test_writable_cached_file_is_rebuilt(self, monkeypatch, tmp_path):
        library = self._cached_library(monkeypatch, tmp_path)
        library.unlink()  # this process has it mapped: never write it in place
        library.write_bytes(b"not a library")
        library.chmod(0o666)
        opened, compiled = self._load(monkeypatch, tmp_path)
        assert compiled and opened == [str(library)]
        assert library.read_bytes() != b"not a library"

    def test_unusable_cache_builds_privately(self, monkeypatch, tmp_path):
        (tmp_path / ".cache").write_text("a file where a directory goes")
        opened, compiled = self._load(monkeypatch, tmp_path)
        assert compiled and len(opened) == 1
        assert not os.path.exists(opened[0])


class TestCompileCacheStatevector(TestCompileCache):
    """The same cache and privacy checks on the quantum engine's kernels."""

    SOURCE = quantum_kernels._SOURCE
    LOAD = staticmethod(quantum_kernels.load_library)
    SPAN = "backend.compile"


class TestInputBoundary:
    """Non-finite inputs fail before any engine runs."""

    @pytest.mark.parametrize("name", ["dx", "dz", "dt"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_config_rejects_non_finite_spacing_and_step(self, name, bad):
        with pytest.raises(ValueError, match="finite and positive"):
            SimulationConfig(**{name: bad})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_wavelet(self, bad):
        config = _config(n_steps=20)
        wavelet = ricker_wavelet(20, config.dt, 12.0)
        wavelet[5] = bad
        velocity = _layered_velocity(3)
        for engine in (BatchedAcousticSimulator2D(velocity, config),
                       BatchedAcousticSimulator2D(velocity[None], config),
                       AcousticSimulator2D(velocity, config)):
            with pytest.raises(ValueError, match="source_wavelet"):
                engine.simulate_shots(SOURCES, wavelet, RECEIVERS)
        with pytest.raises(ValueError, match="source_wavelet"):
            AcousticSimulator2D(velocity, config).simulate_shot(
                SOURCES[0], wavelet, RECEIVERS)

    @needs_cc
    def test_loop_refuses_malformed_arrays(self):
        entry = kernels.load_kernel()
        nz, nx = 6, 7

        def args(**override):
            arrays = dict(
                fields=np.zeros((2, 3, nz, nx)), c2dt2=np.ones((1, nz, nx)),
                mask=np.ones((nz, nx)), cz=np.ones(5), cx=np.ones(5),
                src=np.zeros(2, dtype=np.int64), amps=np.zeros((2, 4)),
                rec=np.arange(3, dtype=np.int64), gather=np.empty((2, 4, 3)),
                snaps=np.empty((0, 2, nz, nx)))
            arrays.update(override)
            return list(arrays.values())

        kernels.leapfrog(entry, *args(), 1, 0)
        for bad in (dict(src=np.array([0, nz * nx], dtype=np.int64)),
                    dict(rec=np.array([-1], dtype=np.int64)),
                    dict(gather=np.empty((2, 3, 3))),
                    dict(c2dt2=np.ones((3, nz, nx))),
                    dict(cz=np.ones(7), cx=np.ones(7)),
                    dict(mask=np.ones((nz, nx + 1))),
                    dict(fields=np.zeros((0, 3, nz, nx)),
                         src=np.zeros(0, dtype=np.int64),
                         amps=np.zeros((0, 4)), gather=np.empty((0, 4, 3)),
                         snaps=np.empty((0, 0, nz, nx)))):
            with pytest.raises(ValueError, match="inconsistent"):
                kernels.leapfrog(entry, *args(**bad), 1, 0)
        with pytest.raises(ValueError, match="inconsistent"):
            kernels.leapfrog(entry, *args(), 0, 0)
        for bad in (dict(fields=np.zeros((2, 3, nz, nx), dtype=np.float32)),
                    dict(mask=np.ones((nx, nz)).T),
                    dict(src=np.zeros(2, dtype=np.int32))):
            with pytest.raises(ctypes.ArgumentError):
                kernels.leapfrog(entry, *args(**bad), 1, 0)
        # The loop's statuses: -2 when its lane buffers cannot be allocated.
        with pytest.raises(MemoryError, match="lane buffers"):
            kernels.leapfrog(lambda *_: -2, *args(), 1, 0)
        with pytest.raises(RuntimeError, match="returned -1"):
            kernels.leapfrog(lambda *_: -1, *args(), 1, 0)
