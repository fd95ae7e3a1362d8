"""Propagator time loop: per-cell reference parity, PML physics, pad_grid.

The batched propagator's vectorised loop is checked against plain per-cell
Python loops defined below.  They share no code with it: every stencil tap,
clamped edge, CFS-PML memory recursion, injection and receiver sample is
spelled out cell by cell.  They are slow, so the grids are tiny.
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
from repro.seismic.kernels import resolve_kernel


ATOL = 1e-12

#: 4th-order central second-derivative taps.
LAPLACIAN_4TH = np.array([-1.0 / 12, 4.0 / 3, -5.0 / 2, 4.0 / 3, -1.0 / 12])


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
# per-cell reference loops
# --------------------------------------------------------------------------- #
def _clamp(i, n):
    return 0 if i < 0 else (n - 1 if i >= n else i)


def leapfrog_sponge(p_prev, p_curr, p_next, c2dt2, model_of, mask,
                    coeffs_z, coeffs_x, pad, src_z, src_x, inject_amps,
                    rec_rows, rec_cols, gather, n_steps, record_every):
    """Advance ``n_steps`` sponge-damped leap-frog steps, cell by cell."""
    n_batch, nz, nx = p_curr.shape
    for step in range(n_steps):
        for b in range(n_batch):
            pp, pc, pn = p_prev[b], p_curr[b], p_next[b]
            cd = c2dt2[model_of[b]]
            for z in range(nz):
                for x in range(nx):
                    d2 = 0.0
                    for k in range(coeffs_z.shape[0]):
                        off = k - pad
                        d2 += (coeffs_z[k] * pc[_clamp(z + off, nz), x]
                               + coeffs_x[k] * pc[z, _clamp(x + off, nx)])
                    pn[z, x] = 2.0 * pc[z, x] - pp[z, x] + cd[z, x] * d2
            pn[src_z[b], src_x[b]] += inject_amps[b, step]
            # Sponge damping on both time levels keeps the scheme stable.
            for z in range(nz):
                for x in range(nx):
                    pn[z, x] *= mask[z, x]
                    pc[z, x] *= mask[z, x]
            if step % record_every == 0:
                for r in range(rec_rows.shape[0]):
                    gather[b, step // record_every, r] = pn[rec_rows[r],
                                                            rec_cols[r]]
        p_prev, p_curr, p_next = p_curr, p_next, p_prev


def leapfrog_pml(p_prev, p_curr, p_next, c2dt2, model_of,
                 coeffs_z, coeffs_x, pad,
                 a_x, b_x, a_z, b_z, x_active, z_active,
                 half_dx_inv, half_dz_inv,
                 psi_x, psi_z, zeta_x, zeta_z,
                 src_z, src_x, inject_amps,
                 rec_rows, rec_cols, gather, n_steps, record_every):
    """Advance ``n_steps`` CFS-PML leap-frog steps, cell by cell.

    Two passes per step: the psi recursions need the *previous* psi of
    neighbouring cells, so they complete over the whole grid before the
    update pass reads their spatial derivative.
    """
    n_batch, nz, nx = p_curr.shape
    for step in range(n_steps):
        # Pass 1: psi recursions (first-derivative memory variables).
        for b in range(n_batch):
            pc = p_curr[b]
            for z in range(nz):
                for x in range(nx):
                    if a_x[x] != 0.0:
                        dpx = (pc[z, _clamp(x + 1, nx)]
                               - pc[z, _clamp(x - 1, nx)]) * half_dx_inv
                        psi_x[b, z, x] = b_x[x] * psi_x[b, z, x] + a_x[x] * dpx
                    if a_z[z] != 0.0:
                        dpz = (pc[_clamp(z + 1, nz), x]
                               - pc[_clamp(z - 1, nz), x]) * half_dz_inv
                        psi_z[b, z, x] = b_z[z] * psi_z[b, z, x] + a_z[z] * dpz
        # Pass 2: zeta recursions + corrected laplacian + time update.
        for b in range(n_batch):
            pp, pc, pn = p_prev[b], p_curr[b], p_next[b]
            cd = c2dt2[model_of[b]]
            for z in range(nz):
                for x in range(nx):
                    d2x = 0.0
                    d2z = 0.0
                    for k in range(coeffs_z.shape[0]):
                        off = k - pad
                        d2z += coeffs_z[k] * pc[_clamp(z + off, nz), x]
                        d2x += coeffs_x[k] * pc[z, _clamp(x + off, nx)]
                    lap = d2x + d2z
                    if x_active[x]:
                        dpsx = (psi_x[b, z, _clamp(x + 1, nx)]
                                - psi_x[b, z, _clamp(x - 1, nx)]) * half_dx_inv
                        zx = zeta_x[b, z, x]
                        if a_x[x] != 0.0:
                            zx = b_x[x] * zx + a_x[x] * (d2x + dpsx)
                            zeta_x[b, z, x] = zx
                        lap += dpsx + zx
                    if z_active[z]:
                        dpsz = (psi_z[b, _clamp(z + 1, nz), x]
                                - psi_z[b, _clamp(z - 1, nz), x]) * half_dz_inv
                        zz = zeta_z[b, z, x]
                        if a_z[z] != 0.0:
                            zz = b_z[z] * zz + a_z[z] * (d2z + dpsz)
                            zeta_z[b, z, x] = zz
                        lap += dpsz + zz
                    pn[z, x] = 2.0 * pc[z, x] - pp[z, x] + cd[z, x] * lap
            pn[src_z[b], src_x[b]] += inject_amps[b, step]
            if step % record_every == 0:
                for r in range(rec_rows.shape[0]):
                    gather[b, step // record_every, r] = pn[rec_rows[r],
                                                            rec_cols[r]]
        p_prev, p_curr, p_next = p_curr, p_next, p_prev


def _dilate(mask):
    out = mask.copy()
    out[:-1] |= mask[1:]
    out[1:] |= mask[:-1]
    return out


def reference_gather(velocity, config, sources, receivers, wavelet):
    """Shot gathers of the per-cell loops, shaped like the simulator's."""
    assert config.spatial_order == 4
    boundary = config.boundary
    velocity = np.asarray(velocity, dtype=np.float64)
    side = boundary.width if boundary.pad_grid else 0
    top = 0 if boundary.free_surface else side
    models = np.pad(velocity.reshape((-1,) + velocity.shape[-2:]),
                    ((0, 0), (top, side), (side, side)), mode="edge")
    n_models, nz, nx = models.shape
    n_shots = len(sources)
    n_batch = n_models * n_shots
    model_of = np.repeat(np.arange(n_models), n_shots)
    src_z = np.array([r + top for r, _ in sources] * n_models)
    src_x = np.array([c + side for _, c in sources] * n_models)
    rec_rows = np.array([r + top for r, _ in receivers])
    rec_cols = np.array([c + side for _, c in receivers])
    dt, n_steps = config.dt, config.n_steps
    c2 = models ** 2
    inject_amps = np.stack([
        c2[model_of[b], src_z[b], src_x[b]] * dt**2 / (config.dx * config.dz)
        * np.asarray(wavelet, dtype=np.float64)[:n_steps]
        for b in range(n_batch)])
    p = [np.zeros((n_batch, nz, nx)) for _ in range(3)]
    gather = np.zeros((n_batch, config.n_recorded, len(receivers)))
    coeffs_z = LAPLACIAN_4TH / config.dz**2
    coeffs_x = LAPLACIAN_4TH / config.dx**2
    common = (coeffs_z, coeffs_x, LAPLACIAN_4TH.size // 2)
    tail = (src_z, src_x, inject_amps, rec_rows, rec_cols, gather, n_steps,
            config.record_every)
    if isinstance(boundary, PMLBoundary):
        a_x, b_x, a_z, b_z = boundary.profiles(
            (nz, nx), config.dx, config.dz, dt, float(velocity.max()))
        memory = [np.zeros((n_batch, nz, nx)) for _ in range(4)]
        leapfrog_pml(*p, c2 * dt**2, model_of, *common,
                     a_x, b_x, a_z, b_z, _dilate(a_x != 0.0),
                     _dilate(a_z != 0.0), 0.5 / config.dx, 0.5 / config.dz,
                     *memory, *tail)
    else:
        leapfrog_sponge(*p, c2 * dt**2, model_of,
                        boundary.build_mask((nz, nx)), *common, *tail)
    return gather.reshape(velocity.shape[:-2] + (n_shots,)
                          + gather.shape[1:])


# --------------------------------------------------------------------------- #
# the name the benchmark records
# --------------------------------------------------------------------------- #
class TestKernelRegistry:
    """``resolve_kernel`` only names the loop for the benchmark record."""

    def test_default_resolves_python(self):
        kernel, fallback = resolve_kernel(None)
        assert kernel.name == "python"
        assert fallback is None


# --------------------------------------------------------------------------- #
# vectorised loop vs the per-cell reference loops
# --------------------------------------------------------------------------- #
class TestFusedKernelParity:
    """The vectorised loop against the per-cell loops above, which fuse
    every phase of a time step into one pass per cell."""

    def _assert_matches_reference(self, velocity, config, sources, receivers,
                                  wavelet):
        expected = reference_gather(velocity, config, sources, receivers,
                                    wavelet)
        gather = BatchedAcousticSimulator2D(velocity, config).simulate_shots(
            sources, wavelet, receivers)
        assert np.abs(expected).max() > 1e-3  # non-trivial signal
        assert gather.shape == expected.shape
        np.testing.assert_allclose(gather, expected, atol=ATOL, rtol=0.0)
        return gather

    def test_sponge_matches_python_kernel(self):
        self._assert_matches_reference(*small_setup())

    def test_sponge_matches_scalar_reference(self):
        velocity, config, sources, receivers, wavelet = small_setup()
        scalar = AcousticSimulator2D(velocity, config)
        expected = np.stack([
            scalar.simulate_shot(tuple(src), wavelet, receivers)
            for src in sources])
        gather = BatchedAcousticSimulator2D(velocity, config).simulate_shots(
            sources, wavelet, receivers)
        np.testing.assert_allclose(gather, expected, atol=1e-10, rtol=0.0)

    def test_pml_matches_python_kernel(self):
        self._assert_matches_reference(*small_setup(
            boundary=PMLBoundary(width=6)))

    def test_pad_grid_pml_matches_python_kernel(self):
        self._assert_matches_reference(*small_setup(
            boundary=PMLBoundary(width=6, pad_grid=True)))

    def test_record_every_matches_python_kernel(self):
        velocity, config, sources, receivers, wavelet = small_setup(
            record_every=4)
        gather = self._assert_matches_reference(
            velocity, config, sources, receivers, wavelet)
        assert gather.shape[1] == config.n_recorded

    def test_multi_model_batch_matches_python_kernel(self):
        velocity, config, sources, receivers, wavelet = small_setup()
        stack = np.stack([velocity, velocity * 0.9])
        gather = self._assert_matches_reference(
            stack, config, sources, receivers, wavelet)
        assert gather.shape[0] == 2


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
