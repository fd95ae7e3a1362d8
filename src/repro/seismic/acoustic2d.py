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
wavefields, with the Laplacian evaluated per axis as block-banded matmuls:
each block of output rows multiplies only the columns its stencil taps
reach (:func:`_band_blocks`).  A grid axis shorter than
:data:`_BAND_CROSSOVER` cells keeps one block, the whole dense operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.seismic.boundary import SpongeBoundary
from repro.telemetry import get_telemetry


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
        The :class:`SpongeBoundary` damping the absorbing edges.
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
        self._mask = self.config.boundary.build_mask(self.velocity.shape)
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


#: Output rows per block of the block-banded Laplacian.  Sixteen was the
#: fastest or tied for it at every measured grid from 40 to 110 cells
#: (batches 4 to 20, orders 4 and 8, one BLAS thread); blocks of 8, 12, 20,
#: 24 and even splits of the axis were no faster.
_BAND_BLOCK = 16

#: Shortest grid axis that is split into blocks.  At batch 4 the split
#: breaks even at 32 and 36 cells and wins from 40 on.  A shorter axis
#: keeps one block, the dense operator, where the split would save little
#: and would move the last bits of the 32x32 Q-D-FW gathers.
_BAND_CROSSOVER = 40


def _band_blocks(op: np.ndarray, half: int, axis: int
                 ) -> List[Tuple[slice, slice, np.ndarray]]:
    """Split a banded operator into blocks that skip its zero columns.

    Returns ``(rows, cols, block)`` triples covering the output axis in
    blocks of :data:`_BAND_BLOCK`.  ``cols`` is the span
    ``[r0 - half, r1 + half)`` (clipped to the grid) that the stencil taps
    of output ``rows = [r0, r1)`` reach.  With ``axis=0`` ``op`` is
    ``D_z`` and ``block = D_z[rows, cols]``, for ``out[rows] = block @
    p[cols]``; with ``axis=1`` ``op`` is ``D_x^T`` and ``block =
    D_x^T[cols, rows]``, for ``out[:, rows] = p[:, cols] @ block``.  Every
    block is a contiguous copy (a strided slice of the transposed ``D_x^T``
    view multiplies about half as fast) except a single block, which is
    ``op`` itself, so a short axis runs exactly the dense product.
    """
    n = op.shape[0]
    if n < _BAND_CROSSOVER:
        return [(slice(0, n), slice(0, n), op)]
    blocks = []
    for r0 in range(0, n, _BAND_BLOCK):
        rows = slice(r0, min(r0 + _BAND_BLOCK, n))
        cols = slice(max(r0 - half, 0), min(rows.stop + half, n))
        block = op[rows, cols] if axis == 0 else op[cols, rows]
        blocks.append((rows, cols, np.ascontiguousarray(block)))
    return blocks


def _apply_laplacian(plan, out: np.ndarray, scratch: np.ndarray
                     ) -> np.ndarray:
    """Run a :meth:`BatchedAcousticSimulator2D._laplacian_plan` into ``out``."""
    for a, b, target in plan:
        np.matmul(a, b, out=target)
    out += scratch
    return out


class BatchedAcousticSimulator2D:
    """Leap-frog propagator advancing a batch of wavefields per time step.

    The production propagator: every forward-modelling call runs it.  One
    numpy time loop carries a leading batch axis over shots — and optionally
    over velocity models sharing the same grid, geometry and config — so the
    Laplacian, the leap-frog update and the sponge damping are evaluated
    as whole-batch array operations instead of one Python loop per shot.

    The Laplacian is evaluated per axis as matmuls instead of ~5 numpy
    temporaries per stencil tap: ``D_z @ p`` and ``p @ D_x^T``, whose
    operator rows (:func:`_stencil_matrix`) encode the scalar reference's
    edge-replicated stencil.  The operators are banded, so each is split
    into blocks of :data:`_BAND_BLOCK` output rows that multiply only the
    ``2 * half`` extra columns their taps reach (:func:`_band_blocks`):
    O(1) work per cell instead of O(n).  An axis shorter than
    :data:`_BAND_CROSSOVER` keeps one block, the dense product.  The
    products differ from the scalar loop only in floating-point summation
    order (~1e-16 per step), so gathers agree with
    :class:`AcousticSimulator2D` to well inside 1e-10 rather than
    bit-for-bit.

    Parameters
    ----------
    velocity:
        ``(nz, nx)`` velocity map shared by every shot, or a
        ``(n_models, nz, nx)`` stack of maps with shared geometry (each shot
        is then fired over every model).
    config:
        Discretisation parameters.  ``config.dt`` is checked against the CFL
        condition of the fastest cell across the whole batch.

    Wavefields, stencil operators, the sponge mask and the gathers are all
    float64.
    """

    def __init__(self, velocity: np.ndarray,
                 config: SimulationConfig = None) -> None:
        self.velocity = np.asarray(velocity, dtype=np.float64)
        if self.velocity.ndim not in (2, 3):
            raise ValueError(
                "velocity must be [depth, offset] or [model, depth, offset]")
        if self.velocity.ndim == 3 and self.velocity.shape[0] == 0:
            raise ValueError("velocity batch must contain at least one model")
        _check_velocity(self.velocity)
        self.config = config or SimulationConfig()
        self.config.validate_cfl(float(self.velocity.max()))
        nz, nx = self.grid_shape
        self._mask = self.config.boundary.build_mask((nz, nx))
        self._telemetry = get_telemetry()
        coeffs = _LAPLACIAN_COEFFS[self.config.spatial_order]
        half = len(coeffs) // 2
        dz_op = _stencil_matrix(nz, coeffs) / self.config.dz**2
        dx_op_t = (_stencil_matrix(nx, coeffs) / self.config.dx**2).T
        self._z_blocks = _band_blocks(dz_op, half, axis=0)
        self._x_blocks = _band_blocks(dx_op_t, half, axis=1)

    @property
    def grid_shape(self) -> Tuple[int, int]:
        """``(nz, nx)`` of the velocity model and the propagation grid."""
        return self.velocity.shape[-2:]

    @property
    def n_models(self) -> Optional[int]:
        """Number of stacked velocity models, or ``None`` for a single map."""
        return None if self.velocity.ndim == 2 else self.velocity.shape[0]

    # ------------------------------------------------------------------ #
    # numerics
    # ------------------------------------------------------------------ #
    def _laplacian_plan(self, field: np.ndarray, out: np.ndarray,
                        scratch: np.ndarray
                        ) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The block products of the Laplacian of ``field``.

        One ``(a, b, target)`` triple per block, for ``np.matmul(a, b,
        out=target)``: the z-axis blocks write ``out``, the x-axis blocks
        ``scratch`` (both shaped like ``field``, ``(..., nz, nx)``).  The
        views are built once, so a time loop that keeps one plan per
        wavefield buffer slices nothing per step.
        """
        return ([(block, field[..., cols, :], out[..., rows, :])
                 for rows, cols, block in self._z_blocks]
                + [(field[..., cols], block, scratch[..., rows])
                   for rows, cols, block in self._x_blocks])

    def _laplacian_into(self, field: np.ndarray, out: np.ndarray,
                        scratch: np.ndarray) -> np.ndarray:
        """Batched Laplacian of ``field`` written into ``out``."""
        return _apply_laplacian(self._laplacian_plan(field, out, scratch),
                                out, scratch)

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
            leading batch axes and trailing grid shape.
        """
        nz, nx = self.grid_shape
        sources = list(source_positions)
        if not sources:
            raise ValueError("need at least one source position")
        sources = _check_positions(sources, nz, nx, "source")
        receivers = _check_positions(receiver_positions, nz, nx, "receiver")

        n_shots = len(sources)
        n_steps = self.config.n_steps
        record_every = self.config.record_every
        n_recorded = self.config.n_recorded
        wavelets = _shot_wavelets(source_wavelet, n_shots, n_steps)

        dt2 = self.config.dt**2
        c2 = self.velocity**2
        src_rows = np.array([r for r, _ in sources], dtype=np.intp)
        src_cols = np.array([c for _, c in sources], dtype=np.intp)
        # Flattened-grid indices: single-axis fancy indexing on a reshaped
        # view is measurably cheaper per step than a (row, col) index pair.
        src_flat = src_rows * nx + src_cols
        rec_rows = np.array([r for r, _ in receivers], dtype=np.intp)
        rec_cols = np.array([c for _, c in receivers], dtype=np.intp)
        rec_flat = rec_rows * nx + rec_cols

        cell_area = self.config.dx * self.config.dz
        if self.velocity.ndim == 2:
            batch_shape: Tuple[int, ...] = (n_shots,)
            c2dt2 = dt2 * c2                                           # (nz, nx)
            src_scale = c2[src_rows, src_cols] * dt2 / cell_area       # (S,)
        else:
            batch_shape = (self.velocity.shape[0], n_shots)
            c2dt2 = dt2 * c2[:, None]
            src_scale = c2[:, src_rows, src_cols] * dt2 / cell_area    # (M, S)
        # Injection amplitudes for every step, scaled once up front:
        # (S, n_steps) or (M, S, n_steps).
        scaled_wavelets = src_scale[..., None] * wavelets

        # Three rotating wavefield buffers plus two scratch arrays: every
        # whole-batch operation of the time loop writes into preallocated
        # storage, so the per-step cost is a fixed number of memory passes
        # with no allocations.  Injection and trace recording run on
        # flattened ``(total_batch, nz*nx)`` views — single-axis fancy
        # indexing is measurably cheaper per step than an N-d index tuple.
        p_prev = np.zeros(batch_shape + (nz, nx))
        p_curr = np.zeros_like(p_prev)
        p_next = np.zeros_like(p_prev)
        # Scratch buffers are fully overwritten before first read.
        lap = np.empty_like(p_prev)
        lap_x = np.empty_like(p_prev)
        flat_views = {id(buf): buf.reshape(-1, nz * nx)
                      for buf in (p_prev, p_curr, p_next)}
        plans = {id(buf): self._laplacian_plan(buf, lap, lap_x)
                 for buf in (p_prev, p_curr, p_next)}

        total_batch = int(np.prod(batch_shape))
        # Every (step, receiver) entry is assigned exactly once in the loop.
        gather = np.empty(batch_shape + (n_recorded, len(receivers)))
        gather_flat = gather.reshape(total_batch, n_recorded, len(receivers))
        inject_rows = np.arange(total_batch)
        inject_cols = np.tile(src_flat, total_batch // n_shots)
        inject_amps = scaled_wavelets.reshape(total_batch, n_steps)

        mask = self._mask

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
            _apply_laplacian(plans[id(p_curr)], lap, lap_x)
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
            return gather, snapshots
        return gather
