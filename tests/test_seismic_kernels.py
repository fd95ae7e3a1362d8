"""Propagator time loop: per-cell reference parity and grid positions.

The batched propagator's compiled loop is checked against a plain per-cell
Python loop defined below.  It shares no code with it: every stencil tap,
clamped edge, Cerjan damping factor, injection and receiver sample is
spelled out cell by cell, and it sums each cell's taps in pairs, so it
agrees with the loop to rounding rather than bit for bit.  It is slow, so
the grids are tiny.
"""

from __future__ import annotations

import math
import shutil

import numpy as np
import pytest

from repro.seismic import (
    AcousticSimulator2D,
    BatchedAcousticSimulator2D,
    SimulationConfig,
    SpongeBoundary,
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


def cerjan_damping(z, x, nz, nx, boundary):
    """Sponge factor of cell ``(z, x)`` from the Cerjan closed form.

    Every absorbing edge the cell lies within ``width`` cells of multiplies
    in ``exp(-(strength * d)**2)``, where ``d`` runs from 1 at the inner
    sponge cell to ``width`` at the outer grid cell.
    """
    width, strength = boundary.width, boundary.strength
    distances = [width - x,               # left edge
                 x - (nx - width) + 1,    # right edge
                 z - (nz - width) + 1]    # bottom edge
    if not boundary.free_surface:
        distances.append(width - z)       # top edge
    factor = 1.0
    for d in distances:
        if 1 <= d <= width:
            factor *= math.exp(-(strength * d) ** 2)
    return factor


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


def reference_gather(velocity, config, sources, receivers, wavelet):
    """Shot gathers of the per-cell loop, shaped like the simulator's."""
    assert config.spatial_order == 4
    models = np.asarray(velocity, dtype=np.float64)
    models = models.reshape((-1,) + models.shape[-2:])
    n_models, nz, nx = models.shape
    n_shots = len(sources)
    n_batch = n_models * n_shots
    model_of = np.repeat(np.arange(n_models), n_shots)
    src_z = np.array([r for r, _ in sources] * n_models)
    src_x = np.array([c for _, c in sources] * n_models)
    rec_rows = np.array([r for r, _ in receivers])
    rec_cols = np.array([c for _, c in receivers])
    dt, n_steps = config.dt, config.n_steps
    c2 = models ** 2
    inject_amps = np.stack([
        c2[model_of[b], src_z[b], src_x[b]] * dt**2 / (config.dx * config.dz)
        * np.asarray(wavelet, dtype=np.float64)[:n_steps]
        for b in range(n_batch)])
    mask = np.array([[cerjan_damping(z, x, nz, nx, config.boundary)
                      for x in range(nx)] for z in range(nz)])
    p = [np.zeros((n_batch, nz, nx)) for _ in range(3)]
    gather = np.zeros((n_batch, config.n_recorded, len(receivers)))
    leapfrog_sponge(*p, c2 * dt**2, model_of, mask,
                    LAPLACIAN_4TH / config.dz**2, LAPLACIAN_4TH / config.dx**2,
                    LAPLACIAN_4TH.size // 2, src_z, src_x, inject_amps,
                    rec_rows, rec_cols, gather, n_steps, config.record_every)
    return gather.reshape(np.shape(velocity)[:-2] + (n_shots,)
                          + gather.shape[1:])


# --------------------------------------------------------------------------- #
# the name the benchmark records
# --------------------------------------------------------------------------- #
class TestKernelRegistry:
    """``resolve_kernel`` names the loop that runs, for the benchmark record."""

    @pytest.mark.skipif(shutil.which("cc") is None,
                        reason="no C compiler on this host")
    def test_default_resolves_c(self):
        kernel, fallback = resolve_kernel(None)
        assert kernel.name == "c"
        assert fallback is None

    def test_loop_is_not_selectable(self):
        with pytest.raises(ValueError, match="not selectable"):
            resolve_kernel("python")


# --------------------------------------------------------------------------- #
# compiled loop vs the per-cell reference loops
# --------------------------------------------------------------------------- #
class TestFusedKernelParity:
    """The compiled loop against the per-cell loops above."""

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
        np.testing.assert_array_equal(gather, expected)

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
# the sponge mask against the closed form
# --------------------------------------------------------------------------- #
class TestSpongeClosedForm:
    @pytest.mark.parametrize("free_surface", [True, False])
    def test_mask_matches_cerjan_closed_form(self, free_surface):
        boundary = SpongeBoundary(width=6, free_surface=free_surface)
        nz, nx = 20, 24
        expected = np.array([[cerjan_damping(z, x, nz, nx, boundary)
                              for x in range(nx)] for z in range(nz)])
        np.testing.assert_allclose(boundary.build_mask((nz, nx)), expected,
                                   rtol=1e-15, atol=0.0)


# --------------------------------------------------------------------------- #
# grid positions
# --------------------------------------------------------------------------- #
class TestPaddedGrid:
    """The propagation grid is the velocity model's grid: a run with the
    sponge outside the model pads the model by hand (see
    ``benchmarks/bench_seismic.py``), so positions are checked against it."""

    def test_positions_validated_against_model_grid(self):
        velocity, config, sources, receivers, wavelet = small_setup(
            boundary=SpongeBoundary(width=6))
        simulator = BatchedAcousticSimulator2D(velocity, config)
        with pytest.raises(ValueError, match="source"):
            simulator.simulate_shots([[2, 24]], wavelet, receivers)
        with pytest.raises(ValueError, match="receiver"):
            simulator.simulate_shots(sources, wavelet, [[1, 3], [24, 3]])
