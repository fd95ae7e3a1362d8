"""Vectorised numpy time loop — the always-available reference kernel.

This is the hot loop that used to live inline in
:class:`~repro.seismic.acoustic2d.BatchedAcousticSimulator2D.simulate_shots`,
moved behind the kernel seam *without changing a single array operation*:
the sponge path below executes the identical op sequence (laplacian pass,
``np.multiply`` + axpy update, flattened-view injection, mask damping,
flattened-view recording, subnormal flushing), so gathers — and therefore
every dataset fingerprint — are bit-identical to the pre-kernel code.

The PML path replaces the mask multiply with the CFS-PML memory-variable
recursions of Pasalic & McGarry (2010): per axis, ``psi`` convolves the
first spatial derivative and ``zeta`` the corrected second derivative, and
``lap + d(psi) + zeta`` stands in for the plain laplacian inside the pads.
Elementwise recursion updates run on the pad strips only; the derivative
passes reuse the simulator's banded-matmul stencil operators.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.seismic.kernels.base import KernelPlan, PropagatorKernel


class PythonKernel(PropagatorKernel):
    """Whole-batch numpy loop; bit-identical to the historical inline loop."""

    name = "python"
    supports_snapshots = True

    def run(self, plan: KernelPlan) -> None:
        if plan.pml is not None:
            self._run_pml(plan)
        else:
            self._run_sponge(plan)

    # ------------------------------------------------------------------ #
    # sponge (historical) path
    # ------------------------------------------------------------------ #
    def _run_sponge(self, plan: KernelPlan) -> None:
        p_prev, p_curr, p_next = plan.p_prev, plan.p_curr, plan.p_next
        lap, lap_x = plan.lap, plan.lap_x
        c2dt2 = plan.c2dt2
        mask = plan.mask
        flat_views, line_views = plan.flat_views, plan.line_views
        inject_rows, inject_cols = plan.inject_rows, plan.inject_cols
        inject_amps = plan.inject_amps
        rec_flat = plan.rec_flat
        gather_flat = plan.gather_flat
        n_steps = plan.n_steps
        record_every = plan.record_every
        record_wavefield = plan.record_wavefield
        wavefield_stride = plan.wavefield_stride
        snapshots = plan.snapshots
        axpy = plan.axpy
        use_axpy = axpy is not None
        laplacian_into = plan.ops._laplacian_into
        flush_cutoff = plan.flush_cutoff
        flush_tiny = flush_cutoff is not None

        # Per-phase profiling accumulates into plain local floats and is
        # flushed to the registry once after the loop; when telemetry is off
        # the loop pays one local-bool check per phase and nothing else.
        telemetry = plan.telemetry
        timing = telemetry.enabled
        t_laplacian = t_update = t_inject = t_boundary = t_record = 0.0

        for step in range(n_steps):
            if timing:
                t0 = perf_counter()
            # p_next = 2 p_curr - p_prev + dt^2 c^2 laplacian(p_curr)
            laplacian_into(p_curr, lap, lap_x)
            if timing:
                t1 = perf_counter()
                t_laplacian += t1 - t0
            np.multiply(lap, c2dt2, out=p_next)
            if use_axpy:
                # One fused pass per term (y += a*x); 2*p is bit-identical
                # to p + p, so this only reorders the summation.
                next_line = line_views[id(p_next)]
                axpy(line_views[id(p_prev)], next_line, a=-1.0)
                axpy(line_views[id(p_curr)], next_line, a=2.0)
            else:
                p_next -= p_prev
                p_next += p_curr
                p_next += p_curr
            if timing:
                t2 = perf_counter()
                t_update += t2 - t1
            p_flat = flat_views[id(p_next)]
            p_flat[inject_rows, inject_cols] += inject_amps[:, step]
            if timing:
                t3 = perf_counter()
                t_inject += t3 - t2

            # Sponge damping on both time levels keeps the scheme stable;
            # the 2-D mask broadcasts over the leading batch axes.
            p_next *= mask
            p_curr *= mask
            if timing:
                t4 = perf_counter()
                t_boundary += t4 - t3

            if step % record_every == 0:
                gather_flat[:, step // record_every, :] = p_flat[:, rec_flat]
            if record_wavefield and step % wavefield_stride == 0:
                snapshots.append(p_next.copy())
            if timing:
                t_record += perf_counter() - t4

            if flush_tiny and step % 16 == 15:
                np.copyto(p_next, 0.0, where=np.abs(p_next) < flush_cutoff)
                np.copyto(p_curr, 0.0, where=np.abs(p_curr) < flush_cutoff)

            p_prev, p_curr, p_next = p_curr, p_next, p_prev

        if timing:
            telemetry.record_timer("propagator.laplacian", t_laplacian,
                                   count=n_steps)
            telemetry.record_timer("propagator.update", t_update,
                                   count=n_steps)
            telemetry.record_timer("propagator.inject", t_inject,
                                   count=n_steps)
            telemetry.record_timer("propagator.boundary", t_boundary,
                                   count=n_steps)
            telemetry.record_timer("propagator.record", t_record,
                                   count=n_steps)

    # ------------------------------------------------------------------ #
    # CFS-PML path
    # ------------------------------------------------------------------ #
    def _run_pml(self, plan: KernelPlan) -> None:
        p_prev, p_curr, p_next = plan.p_prev, plan.p_curr, plan.p_next
        lap, lap_x = plan.lap, plan.lap_x
        c2dt2 = plan.c2dt2
        flat_views, line_views = plan.flat_views, plan.line_views
        inject_rows, inject_cols = plan.inject_rows, plan.inject_cols
        inject_amps = plan.inject_amps
        rec_flat = plan.rec_flat
        gather_flat = plan.gather_flat
        n_steps = plan.n_steps
        record_every = plan.record_every
        record_wavefield = plan.record_wavefield
        wavefield_stride = plan.wavefield_stride
        snapshots = plan.snapshots
        axpy = plan.axpy
        use_axpy = axpy is not None
        ops = plan.ops
        flush_cutoff = plan.flush_cutoff
        flush_tiny = flush_cutoff is not None

        pml = plan.pml
        a_x, b_x = pml.a_x, pml.b_x
        a_z, b_z = pml.a_z, pml.b_z
        psi_x, psi_z = pml.psi_x, pml.psi_z
        zeta_x, zeta_z = pml.zeta_x, pml.zeta_z
        x_strips, z_strips = pml.x_strips, pml.z_strips
        x_halo, z_halo = pml.x_halo, pml.z_halo
        # First-derivative scratch (two buffers reused per axis phase).
        d1 = np.empty_like(p_curr)
        d1_psi = np.empty_like(p_curr)

        telemetry = plan.telemetry
        timing = telemetry.enabled
        t_laplacian = t_update = t_inject = t_boundary = t_record = 0.0

        for step in range(n_steps):
            if timing:
                t0 = perf_counter()
            # Split-axis second derivatives: d2z in lap, d2x in lap_x.
            ops._lap_z_into(p_curr, lap)
            ops._lap_x_into(p_curr, lap_x)
            if timing:
                t1 = perf_counter()
                t_laplacian += t1 - t0

            # Memory-variable recursions, x axis then z axis.  psi convolves
            # the first derivative; zeta convolves the corrected second
            # derivative; both recursions touch only the pad strips, where
            # a/b are non-zero.
            ops._d1x_into(p_curr, d1)
            for sl in x_strips:
                psi_x[..., :, sl] *= b_x[sl]
                psi_x[..., :, sl] += a_x[sl] * d1[..., :, sl]
            ops._d1x_into(psi_x, d1_psi)
            for sl in x_strips:
                zeta_x[..., :, sl] *= b_x[sl]
                zeta_x[..., :, sl] += a_x[sl] * (lap_x[..., :, sl]
                                                 + d1_psi[..., :, sl])
            for sl in x_halo:
                lap_x[..., :, sl] += d1_psi[..., :, sl] + zeta_x[..., :, sl]

            ops._d1z_into(p_curr, d1)
            for sl in z_strips:
                psi_z[..., sl, :] *= b_z[sl, None]
                psi_z[..., sl, :] += a_z[sl, None] * d1[..., sl, :]
            ops._d1z_into(psi_z, d1_psi)
            for sl in z_strips:
                zeta_z[..., sl, :] *= b_z[sl, None]
                zeta_z[..., sl, :] += a_z[sl, None] * (lap[..., sl, :]
                                                       + d1_psi[..., sl, :])
            for sl in z_halo:
                lap[..., sl, :] += d1_psi[..., sl, :] + zeta_z[..., sl, :]
            lap += lap_x
            if timing:
                t2 = perf_counter()
                t_boundary += t2 - t1

            np.multiply(lap, c2dt2, out=p_next)
            if use_axpy:
                next_line = line_views[id(p_next)]
                axpy(line_views[id(p_prev)], next_line, a=-1.0)
                axpy(line_views[id(p_curr)], next_line, a=2.0)
            else:
                p_next -= p_prev
                p_next += p_curr
                p_next += p_curr
            if timing:
                t3 = perf_counter()
                t_update += t3 - t2
            p_flat = flat_views[id(p_next)]
            p_flat[inject_rows, inject_cols] += inject_amps[:, step]
            if timing:
                t4 = perf_counter()
                t_inject += t4 - t3

            if step % record_every == 0:
                gather_flat[:, step // record_every, :] = p_flat[:, rec_flat]
            if record_wavefield and step % wavefield_stride == 0:
                snapshots.append(p_next.copy())
            if timing:
                t_record += perf_counter() - t4

            if flush_tiny and step % 16 == 15:
                np.copyto(p_next, 0.0, where=np.abs(p_next) < flush_cutoff)
                np.copyto(p_curr, 0.0, where=np.abs(p_curr) < flush_cutoff)

            p_prev, p_curr, p_next = p_curr, p_next, p_prev

        if timing:
            telemetry.record_timer("propagator.laplacian", t_laplacian,
                                   count=n_steps)
            telemetry.record_timer("propagator.update", t_update,
                                   count=n_steps)
            telemetry.record_timer("propagator.inject", t_inject,
                                   count=n_steps)
            telemetry.record_timer("propagator.boundary", t_boundary,
                                   count=n_steps)
            telemetry.record_timer("propagator.record", t_record,
                                   count=n_steps)
