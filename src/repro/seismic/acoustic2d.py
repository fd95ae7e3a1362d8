"""2-D acoustic finite-difference wave propagation.

Implements the governing equation of the paper (Eq. 1),

    laplacian(p) - (1/c^2) d^2 p / dt^2 = s,

for an isotropic constant-density medium, discretised with a 2nd-order
leap-frog scheme in time and a 4th-order central stencil in space (the "2-8"
family referenced by the paper; the spatial order is configurable).  Outgoing
energy is absorbed with a :class:`~repro.seismic.boundary.SpongeBoundary`.

The solver records the pressure field at receiver locations every
``record_every``-th time step (every step by default), producing the shot
gathers that constitute OpenFWI-style seismic data.

Two engines share the discretisation.  :class:`AcousticSimulator2D` is the
per-shot reference oracle with per-tap stencil slicing.
:class:`BatchedAcousticSimulator2D` is the production propagator every
forward-modelling call runs: one vectorised numpy time loop over a batch of
wavefields, with the Laplacian evaluated as two dense banded-operator
matmuls per step (one per axis) at every dtype.  Its boundaries may be a
:class:`~repro.seismic.boundary.SpongeBoundary` or a
:class:`~repro.seismic.boundary.PMLBoundary`, optionally padded outside the
velocity model (``pad_grid``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.seismic.boundary import PMLBoundary, SpongeBoundary
from repro.telemetry import get_telemetry
from repro.xm import get_dtype_policy


# Central finite-difference coefficients for the second derivative.
_LAPLACIAN_COEFFS = {
    2: np.array([1.0, -2.0, 1.0]),
    4: np.array([-1.0 / 12, 4.0 / 3, -5.0 / 2, 4.0 / 3, -1.0 / 12]),
    8: np.array([-1.0 / 560, 8.0 / 315, -1.0 / 5, 8.0 / 5, -205.0 / 72,
                 8.0 / 5, -1.0 / 5, 8.0 / 315, -1.0 / 560]),
}

# Conservative stability limits of the leap-frog scheme per spatial order.
_CFL_LIMITS = {2: 1.0, 4: 0.857, 8: 0.777}


def stable_time_step(max_velocity: float, dx: float, dz: float = None,
                     spatial_order: int = 4, safety: float = 0.9) -> float:
    """Return a CFL-stable ``dt`` for the given grid and maximum velocity.

    Module-level so callers can pick a stable time step *before* building a
    :class:`SimulationConfig` (which validates its ``dt`` on use) instead of
    constructing a throwaway config just to ask it for a stable step.
    """
    if dz is None:
        dz = dx
    if spatial_order not in _CFL_LIMITS:
        raise ValueError(f"spatial_order must be one of {sorted(_CFL_LIMITS)}")
    if max_velocity <= 0 or dx <= 0 or dz <= 0:
        raise ValueError("max_velocity, dx and dz must be positive")
    limit = _CFL_LIMITS[spatial_order]
    return float(safety * limit /
                 (max_velocity * np.sqrt(1.0 / dx**2 + 1.0 / dz**2)))


@dataclass
class SimulationConfig:
    """Discretisation parameters of the acoustic simulation.

    Parameters
    ----------
    dx, dz:
        Grid spacing in metres.
    dt:
        Time step in seconds.  Must satisfy the CFL condition for the chosen
        spatial order and maximum velocity; :meth:`validate_cfl` checks it.
    n_steps:
        Number of time steps to record.
    spatial_order:
        Order of the spatial stencil (2, 4 or 8).
    boundary:
        Absorbing boundary configuration (:class:`SpongeBoundary` or
        :class:`~repro.seismic.boundary.PMLBoundary`; PML requires the
        batched engine).
    record_every:
        Receiver recording stride in time steps.  The default 1 records
        every step (bit-identical to the historical behaviour); larger
        strides decimate the gather to ``ceil(n_steps / record_every)``
        samples at an effective sampling interval of ``dt * record_every``
        — see :func:`repro.seismic.wavelets.nyquist_record_stride` for a
        stride that keeps the source band un-aliased.
    """

    dx: float = 10.0
    dz: float = 10.0
    dt: float = 0.001
    n_steps: int = 1000
    spatial_order: int = 4
    boundary: SpongeBoundary = field(default_factory=SpongeBoundary)
    record_every: int = 1

    def __post_init__(self) -> None:
        if self.spatial_order not in _LAPLACIAN_COEFFS:
            raise ValueError(
                f"spatial_order must be one of {sorted(_LAPLACIAN_COEFFS)}")
        if self.dx <= 0 or self.dz <= 0 or self.dt <= 0:
            raise ValueError("dx, dz and dt must be positive")
        if self.n_steps <= 0:
            raise ValueError("n_steps must be positive")
        if int(self.record_every) != self.record_every or self.record_every < 1:
            raise ValueError("record_every must be a positive integer")
        self.record_every = int(self.record_every)

    @property
    def n_recorded(self) -> int:
        """Recorded time samples per trace: ``ceil(n_steps / record_every)``."""
        return -(-self.n_steps // self.record_every)

    @property
    def effective_dt(self) -> float:
        """Sampling interval of the recorded traces (``dt * record_every``)."""
        return self.dt * self.record_every

    def cfl_number(self, max_velocity: float) -> float:
        """Return the Courant number for ``max_velocity``."""
        return float(max_velocity * self.dt *
                     np.sqrt(1.0 / self.dx**2 + 1.0 / self.dz**2))

    def validate_cfl(self, max_velocity: float, limit: float = None) -> None:
        """Raise :class:`ValueError` if the CFL condition is violated."""
        if limit is None:
            limit = _CFL_LIMITS[self.spatial_order]
        value = self.cfl_number(max_velocity)
        if value > limit:
            raise ValueError(
                f"CFL number {value:.3f} exceeds stability limit {limit:.3f}; "
                "reduce dt or increase grid spacing")

    def stable_dt(self, max_velocity: float, safety: float = 0.9) -> float:
        """Return a time step satisfying the CFL condition for ``max_velocity``."""
        return stable_time_step(max_velocity, dx=self.dx, dz=self.dz,
                                spatial_order=self.spatial_order, safety=safety)


def _check_velocity(velocity: np.ndarray) -> None:
    """Reject velocity models with NaN, infinite or non-positive cells.

    ``velocity <= 0`` alone is False for NaN, and the CFL check on a NaN
    maximum does not fire, so a NaN cell would otherwise run and return
    non-finite gathers.
    """
    if not np.all(np.isfinite(velocity) & (velocity > 0)):
        raise ValueError("velocities must be finite and strictly positive")


def _check_positions(positions: Iterable[Tuple[int, int]], nz: int, nx: int,
                     kind: str) -> List[Tuple[int, int]]:
    """Validate grid positions and return them as a list."""
    checked: List[Tuple[int, int]] = []
    for row, col in positions:
        if not (0 <= row < nz and 0 <= col < nx):
            raise ValueError(f"{kind} ({row}, {col}) outside grid ({nz}, {nx})")
        checked.append((row, col))
    return checked


def _shot_wavelets(source_wavelet, n_shots: int, n_steps: int) -> np.ndarray:
    """Pad/truncate wavelet(s) to ``(n_shots, n_steps)``.

    Accepts a single 1-D wavelet shared by every shot or a 2-D
    ``(n_shots, n_samples)`` array of per-shot wavelets.
    """
    src = np.asarray(source_wavelet, dtype=np.float64)
    if src.ndim == 1:
        src = np.broadcast_to(src, (n_shots, src.size))
    elif src.ndim != 2 or src.shape[0] != n_shots:
        raise ValueError(
            f"source_wavelet must be 1-D or of shape (n_shots, n_samples); "
            f"got {src.shape} for {n_shots} shots")
    wavelets = np.zeros((n_shots, n_steps), dtype=np.float64)
    n_copy = min(n_steps, src.shape[1])
    wavelets[:, :n_copy] = src[:, :n_steps]
    return wavelets


class AcousticSimulator2D:
    """Leap-frog acoustic wave propagator on a regular 2-D grid.

    Parameters
    ----------
    velocity:
        2-D array of wave velocities in m/s, indexed ``[depth, offset]``.
    config:
        Discretisation parameters.  ``config.dt`` is checked against the CFL
        condition on construction.
    """

    def __init__(self, velocity: np.ndarray, config: SimulationConfig = None) -> None:
        self.velocity = np.asarray(velocity, dtype=np.float64)
        if self.velocity.ndim != 2:
            raise ValueError("velocity must be a 2-D array [depth, offset]")
        _check_velocity(self.velocity)
        self.config = config or SimulationConfig()
        self.config.validate_cfl(float(self.velocity.max()))
        boundary = self.config.boundary
        if not isinstance(boundary, SpongeBoundary):
            raise ValueError(
                "AcousticSimulator2D only supports SpongeBoundary; use the "
                "batched propagator for PML boundaries")
        if boundary.pad_grid:
            raise ValueError(
                "pad_grid boundaries require the batched propagator")
        self._mask = boundary.build_mask(self.velocity.shape)
        self._coeffs = _LAPLACIAN_COEFFS[self.config.spatial_order]
        self._pad = len(self._coeffs) // 2
        # Stencil coefficients pre-scaled per axis (hoists the / dh**2 out
        # of the Laplacian loop) and preallocated scratch: the padded field
        # and the Laplacian accumulator are reused across every time step.
        self._coeffs_z = self._coeffs / self.config.dz**2
        self._coeffs_x = self._coeffs / self.config.dx**2
        nz, nx = self.velocity.shape
        pad = self._pad
        self._padded = np.zeros((nz + 2 * pad, nx + 2 * pad), dtype=np.float64)
        self._lap = np.zeros((nz, nx), dtype=np.float64)

    # ------------------------------------------------------------------ #
    # numerics
    # ------------------------------------------------------------------ #
    def _laplacian(self, field: np.ndarray) -> np.ndarray:
        """4th/2nd/8th-order Laplacian with edge replication padding.

        Returns the preallocated accumulator (valid until the next call).
        """
        pad = self._pad
        nz, nx = field.shape
        padded = self._padded
        # Edge-replicated fill of the scratch buffer, matching
        # ``np.pad(field, pad, mode="edge")`` including the corners.
        padded[pad:pad + nz, pad:pad + nx] = field
        padded[pad:pad + nz, :pad] = field[:, :1]
        padded[pad:pad + nz, pad + nx:] = field[:, -1:]
        padded[:pad, :] = padded[pad:pad + 1, :]
        padded[pad + nz:, :] = padded[pad + nz - 1:pad + nz, :]
        lap = self._lap
        lap[:] = 0.0
        for k in range(len(self._coeffs)):
            offset = k - pad
            lap += self._coeffs_z[k] * padded[pad + offset:pad + offset + nz,
                                              pad:pad + nx]
            lap += self._coeffs_x[k] * padded[pad:pad + nz,
                                              pad + offset:pad + offset + nx]
        return lap

    # ------------------------------------------------------------------ #
    # simulation
    # ------------------------------------------------------------------ #
    def simulate_shot(self, source_position: Tuple[int, int],
                      source_wavelet: Sequence[float],
                      receiver_positions: Iterable[Tuple[int, int]],
                      record_wavefield: bool = False,
                      wavefield_stride: int = 10):
        """Propagate one shot and record traces at the receivers.

        Parameters
        ----------
        source_position:
            ``(row, column)`` grid index where the source injects energy.
        source_wavelet:
            Source time function; padded/truncated to ``config.n_steps``.
        receiver_positions:
            Iterable of ``(row, column)`` receiver grid indices.
        record_wavefield:
            Also return pressure snapshots every ``wavefield_stride`` steps
            (used by visual examples; costs memory).

        Returns
        -------
        numpy.ndarray
            Shot gather of shape ``(config.n_recorded, n_receivers)``
            (``n_steps`` rows at the default ``record_every=1``).
        list of numpy.ndarray, optional
            Pressure snapshots when ``record_wavefield`` is true.
        """
        nz, nx = self.velocity.shape
        (src_z, src_x), = _check_positions([source_position], nz, nx, "source")
        receivers: List[Tuple[int, int]] = _check_positions(
            receiver_positions, nz, nx, "receiver")

        n_steps = self.config.n_steps
        record_every = self.config.record_every
        wavelet = np.zeros(n_steps, dtype=np.float64)
        src = np.asarray(source_wavelet, dtype=np.float64)
        wavelet[:min(n_steps, src.size)] = src[:n_steps]

        dt2 = self.config.dt**2
        c2 = self.velocity**2

        p_prev = np.zeros((nz, nx), dtype=np.float64)
        p_curr = np.zeros((nz, nx), dtype=np.float64)
        gather = np.zeros((self.config.n_recorded, len(receivers)),
                          dtype=np.float64)
        snapshots: List[np.ndarray] = []

        rec_rows = np.array([r for r, _ in receivers], dtype=np.intp)
        rec_cols = np.array([c for _, c in receivers], dtype=np.intp)

        # Source scaling: inject s * c^2 * dt^2 at the source cell, normalised
        # by the cell area so amplitudes are grid-independent.
        src_scale = c2[src_z, src_x] * dt2 / (self.config.dx * self.config.dz)

        for step in range(n_steps):
            lap = self._laplacian(p_curr)
            p_next = 2.0 * p_curr - p_prev + dt2 * c2 * lap
            p_next[src_z, src_x] += wavelet[step] * src_scale

            # Sponge damping on both time levels keeps the scheme stable.
            p_next *= self._mask
            p_curr *= self._mask

            if step % record_every == 0:
                gather[step // record_every] = p_next[rec_rows, rec_cols]
            if record_wavefield and step % wavefield_stride == 0:
                snapshots.append(p_next.copy())

            p_prev, p_curr = p_curr, p_next

        if record_wavefield:
            return gather, snapshots
        return gather

    def simulate_shots(self, source_positions: Iterable[Tuple[int, int]],
                       source_wavelet,
                       receiver_positions: Iterable[Tuple[int, int]],
                       record_wavefield: bool = False,
                       wavefield_stride: int = 10):
        """Propagate every shot independently (reference multi-shot path).

        This is the bit-exact baseline the batched propagator is verified
        against: each source is simulated with :meth:`simulate_shot` and the
        gathers stacked along a leading shot axis.

        Returns
        -------
        numpy.ndarray
            Shot gathers of shape ``(n_shots, n_steps, n_receivers)``.
        list of numpy.ndarray, optional
            When ``record_wavefield`` is true, snapshots every
            ``wavefield_stride`` steps, each of shape ``(n_shots, nz, nx)``.
        """
        sources = list(source_positions)
        if not sources:
            raise ValueError("need at least one source position")
        receivers = list(receiver_positions)
        wavelets = _shot_wavelets(source_wavelet, len(sources),
                                  self.config.n_steps)
        gathers = []
        per_shot_snapshots = []
        for source, wavelet in zip(sources, wavelets):
            result = self.simulate_shot(source, wavelet, receivers,
                                        record_wavefield=record_wavefield,
                                        wavefield_stride=wavefield_stride)
            if record_wavefield:
                gather, snapshots = result
                per_shot_snapshots.append(snapshots)
            else:
                gather = result
            gathers.append(gather)
        stacked = np.stack(gathers)
        if record_wavefield:
            snapshots = [np.stack([shot[i] for shot in per_shot_snapshots])
                         for i in range(len(per_shot_snapshots[0]))]
            return stacked, snapshots
        return stacked


def _stencil_matrix(n: int, coeffs: np.ndarray) -> np.ndarray:
    """Dense 1-D second-derivative operator with edge-replicated boundaries.

    Row ``i`` holds the central-difference coefficients for grid point ``i``;
    out-of-range taps are clamped to the border point, which is exactly the
    ``np.pad(..., mode="edge")`` boundary treatment of the scalar reference
    (clamped taps accumulate onto the border column).
    """
    pad = len(coeffs) // 2
    matrix = np.zeros((n, n), dtype=np.float64)
    rows = np.arange(n)
    for k, c in enumerate(coeffs):
        cols = np.clip(rows + k - pad, 0, n - 1)
        np.add.at(matrix, (rows, cols), c)
    return matrix


def _dilate_bool(mask: np.ndarray) -> np.ndarray:
    """1-D boolean dilation by one cell (marks the pad halo)."""
    out = mask.copy()
    out[:-1] |= mask[1:]
    out[1:] |= mask[:-1]
    return out


def _bool_runs(mask: np.ndarray) -> List[slice]:
    """Contiguous ``True`` runs of a 1-D boolean array, as slices."""
    runs: List[slice] = []
    start = None
    for index, value in enumerate(mask):
        if value and start is None:
            start = index
        elif not value and start is not None:
            runs.append(slice(start, index))
            start = None
    if start is not None:
        runs.append(slice(start, mask.size))
    return runs


class BatchedAcousticSimulator2D:
    """Leap-frog propagator advancing a batch of wavefields per time step.

    The production propagator: every forward-modelling call runs it.  One
    numpy time loop carries a leading batch axis over shots — and optionally
    over velocity models sharing the same grid, geometry and config — so the
    Laplacian, the leap-frog update and the boundary treatment (sponge
    damping or the CFS-PML recursions) are evaluated as whole-batch array
    operations instead of one Python loop per shot.

    The Laplacian is evaluated in one pass per axis instead of ~5 numpy
    temporaries per stencil tap: two dense banded-operator matmuls
    (``D_z @ p`` and ``p @ D_x^T``, see :func:`_stencil_matrix`) whose rows
    encode the scalar reference's edge-replicated stencil.  They differ
    from the scalar loop only in floating-point summation order (~1e-16
    per step), so gathers agree with :class:`AcousticSimulator2D` to well
    inside 1e-10 rather than bit-for-bit.

    Parameters
    ----------
    velocity:
        ``(nz, nx)`` velocity map shared by every shot, or a
        ``(n_models, nz, nx)`` stack of maps with shared geometry (each shot
        is then fired over every model).
    config:
        Discretisation parameters.  ``config.dt`` is checked against the CFL
        condition of the fastest cell across the whole batch.
    policy:
        Dtype policy (name, instance or ``None`` for the ambient
        ``QUGEO_DTYPE`` / ``float64`` default).  The wavefield buffers,
        stencil material and sponge mask are carried in ``policy.real``
        (halving memory traffic under ``float32``); receiver gathers are
        always accumulated in ``policy.accum_real`` (float64).
    """

    def __init__(self, velocity: np.ndarray, config: SimulationConfig = None,
                 policy=None) -> None:
        self.velocity = np.asarray(velocity, dtype=np.float64)
        if self.velocity.ndim not in (2, 3):
            raise ValueError(
                "velocity must be [depth, offset] or [model, depth, offset]")
        if self.velocity.ndim == 3 and self.velocity.shape[0] == 0:
            raise ValueError("velocity batch must contain at least one model")
        _check_velocity(self.velocity)
        self.config = config or SimulationConfig()
        self.config.validate_cfl(float(self.velocity.max()))
        self.policy = get_dtype_policy(policy)
        real = self.policy.real

        # Optionally extend the grid so the absorbing band lives outside
        # the velocity model: edge-replicated velocity pad, no pad above a
        # free surface.  Sources/receivers stay in model coordinates and
        # are shifted on use.
        boundary = self.config.boundary
        self._is_pml = isinstance(boundary, PMLBoundary)
        pad = int(boundary.width) if getattr(boundary, "pad_grid", False) else 0
        free_surface = bool(getattr(boundary, "free_surface", True))
        self._pad_top = 0 if free_surface else pad
        self._pad_side = pad
        if pad:
            spec = ([(0, 0)] * (self.velocity.ndim - 2)
                    + [(self._pad_top, pad), (pad, pad)])
            self._grid_velocity = np.pad(self.velocity, spec, mode="edge")
        else:
            self._grid_velocity = self.velocity
        nz, nx = self._grid_velocity.shape[-2:]
        self._grid_nz, self._grid_nx = nz, nx

        if self._is_pml:
            boundary.validate_grid((nz, nx))
            self._mask = None
            self._pml_profiles = boundary.profiles(
                (nz, nx), self.config.dx, self.config.dz, self.config.dt,
                float(self.velocity.max()))
        else:
            self._mask = boundary.build_mask((nz, nx)).astype(real, copy=False)
            self._pml_profiles = None
        self._telemetry = get_telemetry()
        coeffs = _LAPLACIAN_COEFFS[self.config.spatial_order]
        self._dz_op = (_stencil_matrix(nz, coeffs)
                       / self.config.dz**2).astype(real, copy=False)
        self._dx_op_t = ((_stencil_matrix(nx, coeffs) / self.config.dx**2)
                         .astype(real, copy=False).T)
        if self._is_pml:
            # Centred first-derivative operators for the PML memory-variable
            # recursions (same clamped-edge treatment as the Laplacian).
            d1 = np.array([-0.5, 0.0, 0.5])
            self._d1z_op = (_stencil_matrix(nz, d1)
                            / self.config.dz).astype(real, copy=False)
            self._d1x_op_t = ((_stencil_matrix(nx, d1) / self.config.dx)
                              .astype(real, copy=False).T)

    @property
    def grid_shape(self) -> Tuple[int, int]:
        """``(nz, nx)`` of the velocity model (source/receiver coordinates)."""
        return self.velocity.shape[-2:]

    @property
    def padded_grid_shape(self) -> Tuple[int, int]:
        """``(nz, nx)`` of the propagation grid including ``pad_grid`` pads."""
        return (self._grid_nz, self._grid_nx)

    @property
    def padded_cells(self) -> int:
        """Cell count of the propagation grid (every pass scales with it)."""
        return self._grid_nz * self._grid_nx

    @property
    def n_models(self) -> Optional[int]:
        """Number of stacked velocity models, or ``None`` for a single map."""
        return None if self.velocity.ndim == 2 else self.velocity.shape[0]

    # ------------------------------------------------------------------ #
    # numerics
    # ------------------------------------------------------------------ #
    def _lap_z_into(self, field: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Second z-derivative of ``field`` written into ``out``."""
        np.matmul(self._dz_op, field, out=out)
        return out

    def _lap_x_into(self, field: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Second x-derivative of ``field`` written into ``out``."""
        np.matmul(field, self._dx_op_t, out=out)
        return out

    def _laplacian_into(self, field: np.ndarray, out: np.ndarray,
                        scratch: np.ndarray) -> np.ndarray:
        """Batched Laplacian of ``field`` written into ``out`` (one pass per axis)."""
        self._lap_z_into(field, out)
        self._lap_x_into(field, scratch)
        out += scratch
        return out

    def _d1z_into(self, field: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Centred first z-derivative (PML recursions only)."""
        np.matmul(self._d1z_op, field, out=out)
        return out

    def _d1x_into(self, field: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Centred first x-derivative (PML recursions only)."""
        np.matmul(field, self._d1x_op_t, out=out)
        return out

    # ------------------------------------------------------------------ #
    # simulation
    # ------------------------------------------------------------------ #
    def simulate_shots(self, source_positions: Iterable[Tuple[int, int]],
                       source_wavelet,
                       receiver_positions: Iterable[Tuple[int, int]],
                       record_wavefield: bool = False,
                       wavefield_stride: int = 10):
        """Propagate every shot of the batch with one shared time loop.

        Parameters
        ----------
        source_positions:
            ``(row, column)`` grid index of every shot.
        source_wavelet:
            One wavelet shared by every shot, or a ``(n_shots, n_samples)``
            array of per-shot wavelets; padded/truncated to
            ``config.n_steps``.
        receiver_positions:
            Iterable of ``(row, column)`` receiver grid indices (shared by
            every shot).
        record_wavefield:
            Also return pressure snapshots every ``wavefield_stride`` steps.

        Returns
        -------
        numpy.ndarray
            ``(n_shots, config.n_recorded, n_receivers)`` gathers for a 2-D
            velocity, or ``(n_models, n_shots, n_recorded, n_receivers)``
            for a stacked velocity batch.
        list of numpy.ndarray, optional
            When ``record_wavefield`` is true, snapshots with the same
            leading batch axes and trailing (model) grid shape.
        """
        model_nz, model_nx = self.grid_shape
        nz, nx = self._grid_nz, self._grid_nx
        row_off, col_off = self._pad_top, self._pad_side
        sources = list(source_positions)
        if not sources:
            raise ValueError("need at least one source position")
        sources = _check_positions(sources, model_nz, model_nx, "source")
        receivers = _check_positions(receiver_positions, model_nz, model_nx,
                                     "receiver")

        n_shots = len(sources)
        n_steps = self.config.n_steps
        record_every = self.config.record_every
        n_recorded = self.config.n_recorded
        wavelets = _shot_wavelets(source_wavelet, n_shots, n_steps)

        dt2 = self.config.dt**2
        c2 = self._grid_velocity**2
        src_rows = np.array([r + row_off for r, _ in sources], dtype=np.intp)
        src_cols = np.array([c + col_off for _, c in sources], dtype=np.intp)
        # Flattened-grid indices: single-axis fancy indexing on a reshaped
        # view is measurably cheaper per step than a (row, col) index pair.
        src_flat = src_rows * nx + src_cols
        rec_rows = np.array([r + row_off for r, _ in receivers], dtype=np.intp)
        rec_cols = np.array([c + col_off for _, c in receivers], dtype=np.intp)
        rec_flat = rec_rows * nx + rec_cols

        cell_area = self.config.dx * self.config.dz
        real = self.policy.real
        if self.velocity.ndim == 2:
            batch_shape: Tuple[int, ...] = (n_shots,)
            c2dt2 = (dt2 * c2).astype(real, copy=False)   # (nz, nx)
            src_scale = c2[src_rows, src_cols] * dt2 / cell_area       # (S,)
        else:
            batch_shape = (self.velocity.shape[0], n_shots)
            c2dt2 = (dt2 * c2[:, None]).astype(real, copy=False)
            src_scale = c2[:, src_rows, src_cols] * dt2 / cell_area    # (M, S)
        # Injection amplitudes for every step, scaled once up front:
        # (S, n_steps) or (M, S, n_steps).  Scaling happens in float64 and
        # only the result is cast, so the float32 path loses precision once
        # rather than per factor.
        scaled_wavelets = (src_scale[..., None] * wavelets).astype(
            real, copy=False)
        if real != np.dtype(np.float64):
            # A band-limited wavelet's far skirt (the Ricker's Gaussian
            # envelope) injects amplitudes tens of orders below the peak.
            # At reduced precision those seeds underflow into subnormals as
            # they spread, and subnormal microcode assists then dominate the
            # time loop.  Amplitudes below eps^2 of the per-shot peak are far
            # outside measurable range, so flush them to exact zeros.
            scaled_wavelets = scaled_wavelets.copy()
            peak = np.abs(scaled_wavelets).max(axis=-1, keepdims=True)
            cutoff = (np.finfo(real).eps ** 2) * peak
            scaled_wavelets[np.abs(scaled_wavelets) < cutoff] = 0.0

        # Three rotating wavefield buffers plus two scratch arrays: every
        # whole-batch operation of the time loop writes into preallocated
        # storage, so the per-step cost is a fixed number of memory passes
        # with no allocations.  Injection and trace recording run on
        # flattened ``(total_batch, nz*nx)`` views — single-axis fancy
        # indexing is measurably cheaper per step than an N-d index tuple.
        p_prev = np.zeros(batch_shape + (nz, nx), dtype=real)
        p_curr = np.zeros_like(p_prev)
        p_next = np.zeros_like(p_prev)
        # Scratch buffers are fully overwritten before first read.
        lap = np.empty_like(p_prev)
        lap_x = np.empty_like(p_prev)
        flat_views = {id(buf): buf.reshape(-1, nz * nx)
                      for buf in (p_prev, p_curr, p_next)}

        total_batch = int(np.prod(batch_shape))
        # Every (step, receiver) entry is assigned exactly once in the loop.
        # Gathers accumulate in float64 under every policy: recorded traces
        # are the caller-facing result, and keeping them at accumulation
        # precision costs nothing on the per-step hot path.
        gather = np.empty(batch_shape + (n_recorded, len(receivers)),
                          dtype=self.policy.accum_real)
        gather_flat = gather.reshape(total_batch, n_recorded, len(receivers))
        inject_rows = np.arange(total_batch)
        inject_cols = np.tile(src_flat, total_batch // n_shots)
        inject_amps = scaled_wavelets.reshape(total_batch, n_steps)

        mask = self._mask
        # The causal edge of the discrete wavefront decays super-exponentially
        # through every representable magnitude, so at reduced precision a
        # band of cells is always sitting in subnormal range — and subnormal
        # microcode assists would dominate the whole time loop.  Periodically
        # flushing magnitudes below ~1e-24 (fifteen orders under any signal
        # the float32 gather could resolve) to exact zero keeps that band
        # empty at a cost of two vectorised passes every 16 steps.
        flush_tiny = real != np.dtype(np.float64)
        flush_cutoff = float(np.finfo(real).tiny / np.finfo(real).eps ** 2)

        is_pml = self._is_pml
        if is_pml:
            # CFS-PML memory variables (Pasalic & McGarry 2010): per axis,
            # psi convolves the first spatial derivative and zeta the
            # corrected second derivative, and ``lap + d(psi) + zeta`` stands
            # in for the plain Laplacian inside the pads.  The coefficient
            # tables are exactly zero outside the pads, so the recursions run
            # on the pad strips only and the corrections on the strips
            # dilated by one cell (the reach of the psi derivative).
            a_x, b_x, a_z, b_z = self._pml_profiles
            pad_x = a_x != 0.0
            pad_z = a_z != 0.0
            x_strips, z_strips = _bool_runs(pad_x), _bool_runs(pad_z)
            x_halo = _bool_runs(_dilate_bool(pad_x))
            z_halo = _bool_runs(_dilate_bool(pad_z))
            psi_x = np.zeros_like(p_prev)
            psi_z = np.zeros_like(p_prev)
            zeta_x = np.zeros_like(p_prev)
            zeta_z = np.zeros_like(p_prev)
            # First-derivative scratch (two buffers reused per axis phase).
            d1 = np.empty_like(p_prev)
            d1_psi = np.empty_like(p_prev)

        snapshots: List[np.ndarray] = []
        # Per-phase profiling accumulates into plain local floats and is
        # flushed to the registry once after the loop; when telemetry is off
        # the loop pays one local-bool check per phase and nothing else.
        telemetry = self._telemetry
        timing = telemetry.enabled
        t_laplacian = t_update = t_inject = t_boundary = t_record = 0.0

        loop_start = perf_counter()
        for step in range(n_steps):
            if timing:
                t0 = perf_counter()
            if is_pml:
                # Split-axis second derivatives: d2z in lap, d2x in lap_x.
                self._lap_z_into(p_curr, lap)
                self._lap_x_into(p_curr, lap_x)
                if timing:
                    t1 = perf_counter()
                    t_laplacian += t1 - t0
                    t0 = t1

                # Memory-variable recursions, x axis then z axis.
                self._d1x_into(p_curr, d1)
                for sl in x_strips:
                    psi_x[..., :, sl] *= b_x[sl]
                    psi_x[..., :, sl] += a_x[sl] * d1[..., :, sl]
                self._d1x_into(psi_x, d1_psi)
                for sl in x_strips:
                    zeta_x[..., :, sl] *= b_x[sl]
                    zeta_x[..., :, sl] += a_x[sl] * (lap_x[..., :, sl]
                                                     + d1_psi[..., :, sl])
                for sl in x_halo:
                    lap_x[..., :, sl] += (d1_psi[..., :, sl]
                                          + zeta_x[..., :, sl])

                self._d1z_into(p_curr, d1)
                for sl in z_strips:
                    psi_z[..., sl, :] *= b_z[sl, None]
                    psi_z[..., sl, :] += a_z[sl, None] * d1[..., sl, :]
                self._d1z_into(psi_z, d1_psi)
                for sl in z_strips:
                    zeta_z[..., sl, :] *= b_z[sl, None]
                    zeta_z[..., sl, :] += a_z[sl, None] * (
                        lap[..., sl, :] + d1_psi[..., sl, :])
                for sl in z_halo:
                    lap[..., sl, :] += d1_psi[..., sl, :] + zeta_z[..., sl, :]
                lap += lap_x
                if timing:
                    t1 = perf_counter()
                    t_boundary += t1 - t0
            else:
                self._laplacian_into(p_curr, lap, lap_x)
                if timing:
                    t1 = perf_counter()
                    t_laplacian += t1 - t0

            # p_next = 2 p_curr - p_prev + dt^2 c^2 laplacian(p_curr), summed
            # as (c2dt2 * lap - p_prev) + 2 p_curr: the rounding order every
            # dataset fingerprint was minted with.  The doubling (exact) goes
            # into the lap_x scratch, which is free again here.
            np.multiply(lap, c2dt2, out=p_next)
            p_next -= p_prev
            np.add(p_curr, p_curr, out=lap_x)
            p_next += lap_x
            if timing:
                t2 = perf_counter()
                t_update += t2 - t1
            p_flat = flat_views[id(p_next)]
            p_flat[inject_rows, inject_cols] += inject_amps[:, step]
            if timing:
                t3 = perf_counter()
                t_inject += t3 - t2

            if not is_pml:
                # Sponge damping on both time levels keeps the scheme stable;
                # the 2-D mask broadcasts over the leading batch axes.
                p_next *= mask
                p_curr *= mask
                if timing:
                    t4 = perf_counter()
                    t_boundary += t4 - t3
                    t3 = t4

            if step % record_every == 0:
                gather_flat[:, step // record_every, :] = p_flat[:, rec_flat]
            if record_wavefield and step % wavefield_stride == 0:
                snapshots.append(p_next.copy())
            if timing:
                t_record += perf_counter() - t3

            if flush_tiny and step % 16 == 15:
                np.copyto(p_next, 0.0, where=np.abs(p_next) < flush_cutoff)
                np.copyto(p_curr, 0.0, where=np.abs(p_curr) < flush_cutoff)

            p_prev, p_curr, p_next = p_curr, p_next, p_prev
        elapsed = perf_counter() - loop_start

        if timing:
            for phase, total in (("laplacian", t_laplacian),
                                 ("update", t_update),
                                 ("inject", t_inject),
                                 ("boundary", t_boundary),
                                 ("record", t_record)):
                telemetry.record_timer(f"propagator.{phase}", total,
                                       count=n_steps)
            telemetry.counter("propagator.steps").inc(n_steps)
            telemetry.counter("propagator.shots").inc(n_shots)
            telemetry.counter("propagator.wavefields").inc(total_batch)
            if elapsed > 0:
                telemetry.gauge("propagator.steps_per_sec").set(
                    n_steps / elapsed)
                telemetry.gauge("propagator.wavefield_steps_per_sec").set(
                    n_steps * total_batch / elapsed)

        if record_wavefield:
            if row_off or col_off:
                # Crop padded-grid snapshots back to model coordinates.
                snapshots = [snap[..., row_off:row_off + model_nz,
                                  col_off:col_off + model_nx]
                             for snap in snapshots]
            return gather, snapshots
        return gather
