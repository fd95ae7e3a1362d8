"""Propagator kernel layer: registry wiring, fused-loop parity, PML.

The fused kernel in :mod:`repro.seismic.kernels.fused` degrades to plain
Python loops when numba is absent, so its parity tests run (slowly, on tiny
grids) in every environment; when numba is installed the same tests cover
the compiled code paths.  The ``"numba"`` registry entry itself is only
available when numba imports — mirroring how ``tests/test_backends.py``
treats optional engines.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.seismic import (
    AcousticSimulator2D,
    BatchedAcousticSimulator2D,
    PMLBoundary,
    SimulationConfig,
    SpongeBoundary,
    edge_reflection_energy,
    make_boundary,
    pml_profiles,
    ricker_wavelet,
    stable_time_step,
)
from repro.seismic.kernels import (
    KERNELS,
    PythonKernel,
    default_kernel_name,
    get_kernel,
    resolve_kernel,
)
from repro.seismic.kernels.fused import HAVE_NUMBA, FusedLoopKernel
from repro.telemetry import capture
from repro.utils import env
from repro.utils.registry import (
    DuplicateNameError,
    UnavailableError,
    UnknownNameError,
)


ATOL = 1e-12


def small_setup(nz=24, nx=24, n_steps=80, boundary=None, **config_kwargs):
    """A two-layer model plus survey small enough for pure-Python loops."""
    velocity = np.full((nz, nx), 1800.0)
    velocity[nz // 2:] = 2400.0
    dt = stable_time_step(2400.0, dx=10.0, dz=10.0, spatial_order=4)
    if boundary is None:
        boundary = SpongeBoundary(width=6)
    config = SimulationConfig(dx=10.0, dz=10.0, dt=dt, n_steps=n_steps,
                              spatial_order=4, boundary=boundary,
                              **config_kwargs)
    sources = np.array([[2, nx // 4], [2, 3 * nx // 4]])
    receivers = np.stack([np.ones(nx - 4, dtype=int),
                          np.arange(2, nx - 2)], axis=1)
    wavelet = ricker_wavelet(n_steps, dt, 12.0)
    return velocity, config, sources, receivers, wavelet


# --------------------------------------------------------------------------- #
# registry behaviour
# --------------------------------------------------------------------------- #
class TestKernelRegistry:
    def test_builtin_registrations(self):
        assert KERNELS.names() == ["numba", "python"]
        assert KERNELS.available("python")
        assert KERNELS.available("numba") == HAVE_NUMBA
        assert not KERNELS.available("no-such-kernel")

    def test_default_resolves_python(self, monkeypatch):
        monkeypatch.delenv(env.SEISMIC_KERNEL, raising=False)
        assert default_kernel_name() == "python"
        assert isinstance(get_kernel(), PythonKernel)

    def test_env_var_overrides_default(self, monkeypatch):
        monkeypatch.setenv(env.SEISMIC_KERNEL, "numba")
        assert default_kernel_name() == "numba"
        if HAVE_NUMBA:
            assert get_kernel().name == "numba"
        else:
            with pytest.raises(UnavailableError, match="numba"):
                get_kernel()

    def test_instances_are_cached_per_name(self):
        assert get_kernel("python") is get_kernel("python")

    def test_instance_spec_passes_through(self):
        kernel = PythonKernel()
        assert get_kernel(kernel) is kernel

    def test_unknown_name_raises_with_listing(self):
        with pytest.raises(UnknownNameError, match="python"):
            get_kernel("fortran")

    def test_bad_spec_type_raises(self):
        with pytest.raises(TypeError, match="kernel spec"):
            get_kernel(42)

    def test_register_duplicate_and_replace(self):
        original = get_kernel("python")
        with pytest.raises(DuplicateNameError):
            KERNELS.register("python", PythonKernel)
        replacement = PythonKernel()
        KERNELS.register("python", lambda: replacement, replace=True)
        try:
            assert get_kernel("python") is replacement
        finally:
            KERNELS.register("python", lambda: original, replace=True)
        assert get_kernel("python") is original
        assert KERNELS.names() == ["numba", "python"]

    @pytest.mark.skipif(HAVE_NUMBA, reason="needs numba to be missing")
    def test_resolve_degrades_unavailable_to_python(self):
        kernel, reason = resolve_kernel("numba")
        assert isinstance(kernel, PythonKernel)
        assert "numba" in reason

    def test_resolve_degrades_snapshot_incapable_to_python(self):
        fused = FusedLoopKernel()
        kernel, reason = resolve_kernel(fused, need_snapshots=True)
        assert isinstance(kernel, PythonKernel)
        assert "snapshots" in reason
        same, reason = resolve_kernel(fused, need_snapshots=False)
        assert same is fused and reason is None

    def test_resolve_still_raises_for_unknown_names(self):
        with pytest.raises(UnknownNameError):
            resolve_kernel("fortran")


# --------------------------------------------------------------------------- #
# fused-loop parity (degraded pure-Python loops when numba is absent)
# --------------------------------------------------------------------------- #
class TestFusedKernelParity:
    def test_sponge_matches_python_kernel(self):
        velocity, config, sources, receivers, wavelet = small_setup()
        expected = BatchedAcousticSimulator2D(
            velocity, config, kernel="python").simulate_shots(
                sources, wavelet, receivers)
        fused = BatchedAcousticSimulator2D(
            velocity, config, kernel=FusedLoopKernel()).simulate_shots(
                sources, wavelet, receivers)
        assert np.abs(expected).max() > 1e-3  # non-trivial signal
        np.testing.assert_allclose(fused, expected, atol=ATOL, rtol=0.0)

    def test_sponge_matches_scalar_reference(self):
        velocity, config, sources, receivers, wavelet = small_setup()
        scalar = AcousticSimulator2D(velocity, config)
        expected = np.stack([
            scalar.simulate_shot(tuple(src), wavelet, receivers)
            for src in sources])
        fused = BatchedAcousticSimulator2D(
            velocity, config, kernel=FusedLoopKernel()).simulate_shots(
                sources, wavelet, receivers)
        np.testing.assert_allclose(fused, expected, atol=1e-10, rtol=0.0)

    def test_pml_matches_python_kernel(self):
        velocity, config, sources, receivers, wavelet = small_setup(
            boundary=PMLBoundary(width=6))
        expected = BatchedAcousticSimulator2D(
            velocity, config, kernel="python").simulate_shots(
                sources, wavelet, receivers)
        fused = BatchedAcousticSimulator2D(
            velocity, config, kernel=FusedLoopKernel()).simulate_shots(
                sources, wavelet, receivers)
        assert np.abs(expected).max() > 1e-3
        np.testing.assert_allclose(fused, expected, atol=ATOL, rtol=0.0)

    def test_pad_grid_pml_matches_python_kernel(self):
        velocity, config, sources, receivers, wavelet = small_setup(
            boundary=PMLBoundary(width=6, pad_grid=True))
        expected = BatchedAcousticSimulator2D(
            velocity, config, kernel="python").simulate_shots(
                sources, wavelet, receivers)
        fused = BatchedAcousticSimulator2D(
            velocity, config, kernel=FusedLoopKernel()).simulate_shots(
                sources, wavelet, receivers)
        np.testing.assert_allclose(fused, expected, atol=ATOL, rtol=0.0)

    def test_record_every_matches_python_kernel(self):
        velocity, config, sources, receivers, wavelet = small_setup(
            record_every=4)
        expected = BatchedAcousticSimulator2D(
            velocity, config, kernel="python").simulate_shots(
                sources, wavelet, receivers)
        fused = BatchedAcousticSimulator2D(
            velocity, config, kernel=FusedLoopKernel()).simulate_shots(
                sources, wavelet, receivers)
        assert expected.shape[1] == config.n_recorded
        np.testing.assert_allclose(fused, expected, atol=ATOL, rtol=0.0)

    def test_multi_model_batch_matches_python_kernel(self):
        velocity, config, sources, receivers, wavelet = small_setup()
        stack = np.stack([velocity, velocity * 0.9])
        expected = BatchedAcousticSimulator2D(
            stack, config, kernel="python").simulate_shots(
                sources, wavelet, receivers)
        fused = BatchedAcousticSimulator2D(
            stack, config, kernel=FusedLoopKernel()).simulate_shots(
                sources, wavelet, receivers)
        assert expected.shape[0] == 2
        np.testing.assert_allclose(fused, expected, atol=ATOL, rtol=0.0)

    def test_snapshot_requests_fall_back_to_python(self):
        velocity, config, sources, receivers, wavelet = small_setup(
            n_steps=20)
        simulator = BatchedAcousticSimulator2D(
            velocity, config, kernel=FusedLoopKernel())
        with capture("summary") as telemetry:
            gather, snapshots = simulator.simulate_shots(
                sources, wavelet, receivers, record_wavefield=True,
                wavefield_stride=5)
            counters = telemetry.snapshot()["counters"]
        assert counters["propagator.kernel.fallbacks"] == 1
        assert counters["propagator.kernel.python"] == 1
        assert len(snapshots) == 4
        assert snapshots[0].shape == (len(sources),) + velocity.shape

    def test_kernel_dispatch_is_counted(self):
        velocity, config, sources, receivers, wavelet = small_setup(
            n_steps=20)
        simulator = BatchedAcousticSimulator2D(
            velocity, config, kernel=FusedLoopKernel())
        with capture("summary") as telemetry:
            simulator.simulate_shots(sources, wavelet, receivers)
            counters = telemetry.snapshot()["counters"]
        assert counters["propagator.kernel.numba"] == 1
        assert "propagator.kernel.fallbacks" not in counters


# --------------------------------------------------------------------------- #
# PML boundary physics
# --------------------------------------------------------------------------- #
class TestPMLBoundary:
    def test_profiles_vanish_outside_the_pad(self):
        a, b = pml_profiles(50, 10, 10.0, 1e-3, 3000.0)
        assert np.all(a[10:40] == 0.0) and np.all(b[10:40] == 0.0)
        assert np.all(a[:10] < 0.0)  # a = sigma/(sigma+alpha) * (b-1) < 0
        assert np.all((0.0 < b[:10]) & (b[:10] < 1.0))
        np.testing.assert_allclose(a[:10], a[40:][::-1])
        np.testing.assert_allclose(b[:10], b[40:][::-1])

    def test_free_surface_skips_top_pad(self):
        boundary = PMLBoundary(width=6)
        a_x, b_x, a_z, b_z = boundary.profiles((40, 40), 10.0, 10.0,
                                               1e-3, 3000.0)
        assert np.all(a_z[:6] == 0.0)  # free surface: no top pad
        assert np.all(a_z[-6:] != 0.0)
        assert np.all(a_x[:6] != 0.0) and np.all(a_x[-6:] != 0.0)

    def test_width_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            PMLBoundary(width=1)
        with pytest.raises(ValueError, match="too large"):
            PMLBoundary(width=12).validate_grid((40, 20))

    def test_make_boundary_builds_both_kinds(self):
        assert isinstance(make_boundary("sponge", width=8), SpongeBoundary)
        pml = make_boundary("pml", width=8, pad_grid=True)
        assert isinstance(pml, PMLBoundary)
        assert pml.pad_grid
        with pytest.raises(ValueError, match="unknown boundary"):
            make_boundary("mirror", width=8)

    def test_scalar_simulator_rejects_pml(self):
        velocity, config, _, _, _ = small_setup(
            boundary=PMLBoundary(width=6))
        with pytest.raises(ValueError, match="SpongeBoundary"):
            AcousticSimulator2D(velocity, config)

    def test_scalar_simulator_rejects_pad_grid(self):
        velocity, config, _, _, _ = small_setup(
            boundary=SpongeBoundary(width=6, pad_grid=True))
        with pytest.raises(ValueError, match="pad_grid"):
            AcousticSimulator2D(velocity, config)

    def test_pml_wavefield_stays_bounded(self):
        velocity, config, sources, receivers, wavelet = small_setup(
            boundary=PMLBoundary(width=6), n_steps=400)
        gather = BatchedAcousticSimulator2D(
            velocity, config).simulate_shots(sources, wavelet, receivers)
        assert np.isfinite(gather).all()
        # After the source rings down, the PML must have drained the energy:
        # the late-time coda is far weaker than the direct arrivals.
        peak = np.abs(gather).max()
        late = np.abs(gather[:, -40:, :]).max()
        assert late < 0.05 * peak

    def test_pml_reflects_less_than_sponge_at_equal_width(self):
        pml = edge_reflection_energy(PMLBoundary(width=12))
        sponge = edge_reflection_energy(SpongeBoundary(width=12))
        assert pml < 0.1 * sponge

    def test_thin_pml_beats_default_sponge(self):
        # The headline claim: 12 PML cells absorb better than the 20-cell
        # sponge default, so padded grids shrink at equal-or-better quality.
        pml = edge_reflection_energy(PMLBoundary(width=12))
        sponge = edge_reflection_energy(SpongeBoundary(width=20))
        assert pml <= sponge
        assert pml < 1e-3  # absolute quality floor


# --------------------------------------------------------------------------- #
# pad_grid geometry
# --------------------------------------------------------------------------- #
class TestPaddedGrid:
    def test_padded_shape_and_cells(self):
        velocity, config, _, _, _ = small_setup(
            boundary=SpongeBoundary(width=6, pad_grid=True))
        simulator = BatchedAcousticSimulator2D(velocity, config)
        assert simulator.grid_shape == (24, 24)
        assert simulator.padded_grid_shape == (30, 36)  # free surface: no top
        assert simulator.padded_cells == 30 * 36
        no_pad = BatchedAcousticSimulator2D(
            velocity, dataclasses.replace(
                config, boundary=SpongeBoundary(width=6)))
        assert no_pad.padded_grid_shape == (24, 24)

    def test_pad_grid_equals_manually_padded_model(self):
        # pad_grid=True must be exactly the interior-damping run on a model
        # edge-padded by hand, with sources/receivers shifted into pad
        # coordinates — same mask, same medium, bit-identical gathers.
        width = 6
        velocity, config, sources, receivers, wavelet = small_setup(
            boundary=SpongeBoundary(width=width, pad_grid=True))
        padded = BatchedAcousticSimulator2D(
            velocity, config).simulate_shots(sources, wavelet, receivers)
        manual_model = np.pad(velocity, ((0, width), (width, width)),
                              mode="edge")  # free surface: no top pad
        shift = np.array([0, width])
        manual = BatchedAcousticSimulator2D(
            manual_model, dataclasses.replace(
                config, boundary=SpongeBoundary(width=width))
        ).simulate_shots(sources + shift, wavelet, receivers + shift)
        assert padded.shape == manual.shape
        np.testing.assert_array_equal(padded, manual)

    def test_positions_validated_against_model_grid(self):
        velocity, config, sources, receivers, wavelet = small_setup(
            boundary=SpongeBoundary(width=6, pad_grid=True))
        simulator = BatchedAcousticSimulator2D(velocity, config)
        with pytest.raises(ValueError, match="source"):
            simulator.simulate_shots([[2, 24]], wavelet, receivers)
