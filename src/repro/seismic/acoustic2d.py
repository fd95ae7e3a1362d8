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
forward-modelling call runs: one call of a fused C time loop
(``leapfrog.c``, built on first use by :mod:`repro.seismic.kernels`) over a
batch of wavefields, which it runs in lane groups stored wavefield
innermost, bit-identical to the oracle, which is also its fallback where no
C compiler is available.
"""

from __future__ import annotations

import dataclasses
import math
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
        # ``nan <= 0`` is False, and a NaN step passes the CFL check too.
        if not all(math.isfinite(v) and v > 0
                   for v in (self.dx, self.dz, self.dt)):
            raise ValueError("dx, dz and dt must be finite and positive")
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


def _shot_wavelets(source_wavelet, batch_shape: Tuple[int, ...],
                   n_steps: int) -> np.ndarray:
    """Pad/truncate wavelet(s) to ``(n_shots, n_steps)`` or
    ``(n_models, n_shots, n_steps)``.

    ``batch_shape`` is ``(n_shots,)`` or ``(n_models, n_shots)``.  Accepts
    a single 1-D wavelet shared by every shot, a 2-D ``(n_shots,
    n_samples)`` array of per-shot wavelets or, over a velocity stack, a
    3-D ``(n_models, n_shots, n_samples)`` array of per-model wavelets.
    """
    src = np.asarray(source_wavelet, dtype=np.float64)
    if not np.all(np.isfinite(src)):
        raise ValueError("source_wavelet must be finite")
    if src.ndim == 1:
        src = np.broadcast_to(src, (batch_shape[-1], src.size))
    if src.shape[:-1] not in (batch_shape[-1:], batch_shape):
        raise ValueError(
            f"source_wavelet must be 1-D, of shape (n_shots, n_samples) or, "
            f"over a velocity stack, (n_models, n_shots, n_samples); got "
            f"{src.shape} for a batch of {batch_shape}")
    wavelets = np.zeros(src.shape[:-1] + (n_steps,), dtype=np.float64)
    n_copy = min(n_steps, src.shape[-1])
    wavelets[..., :n_copy] = src[..., :n_steps]
    return wavelets


class AcousticSimulator2D:
    """Leap-frog acoustic wave propagator on a regular 2-D grid.

    The reference oracle: one numpy time loop per shot.  The production
    :class:`BatchedAcousticSimulator2D` reproduces it bit for bit, and runs
    it as its fallback where the compiled loop is unavailable.

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
        wavelet = _shot_wavelets(source_wavelet, (1,), n_steps)[0]

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
        wavelets = _shot_wavelets(source_wavelet, (len(sources),),
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


class BatchedAcousticSimulator2D:
    """Leap-frog propagator over a batch of shots and velocity models.

    The production propagator: every forward-modelling call runs it.  One
    :meth:`simulate_shots` call hands every wavefield of the batch (each
    shot over each velocity model sharing the grid, geometry and config,
    each model optionally at its own time step) to the fused C time loop of
    :mod:`repro.seismic.kernels`.  The loop splits the batch into lane
    groups sized from the wavefield count and the grid, as many wavefields
    as stay in a core's L2 cache, and stores each group wavefield
    innermost, so that one vector loop per grid row advances the whole
    group.  Every cell of every wavefield does the scalar oracle's
    floating-point operations in the oracle's order, so the gathers are
    bit-identical to :class:`AcousticSimulator2D`'s, whatever group a
    wavefield runs in.  Where no C compiler is available the oracle itself
    runs, once per (model, shot).

    Parameters
    ----------
    velocity:
        ``(nz, nx)`` velocity map shared by every shot, or a
        ``(n_models, nz, nx)`` stack of maps with shared geometry (each shot
        is then fired over every model).
    config:
        Discretisation parameters.  Without ``dt``, ``config.dt`` is checked
        against the CFL condition of the fastest cell across the whole
        batch.
    dt:
        Optional ``(n_models,)`` time step per map of a velocity stack; it
        replaces ``config.dt``.  The step scales each map's ``c^2 dt^2``
        and source injection, and each map is checked against the CFL
        condition at its own step.  The per-model source wavelets, which
        depend on ``dt`` too, are the caller's: pass them to
        :meth:`simulate_shots` as an ``(n_models, n_shots, n_samples)``
        array.

    Wavefields, stencil taps, the sponge mask and the gathers are all
    float64.
    """

    def __init__(self, velocity: np.ndarray,
                 config: SimulationConfig = None,
                 dt: Optional[np.ndarray] = None) -> None:
        self.velocity = np.asarray(velocity, dtype=np.float64)
        if self.velocity.ndim not in (2, 3):
            raise ValueError(
                "velocity must be [depth, offset] or [model, depth, offset]")
        if self.velocity.ndim == 3 and self.velocity.shape[0] == 0:
            raise ValueError("velocity batch must contain at least one model")
        _check_velocity(self.velocity)
        self.config = config or SimulationConfig()
        if dt is None:
            self.config.validate_cfl(float(self.velocity.max()))
            self._dt = self.config.dt
        else:
            self._dt = self._per_model_dt(dt)
        self._mask = self.config.boundary.build_mask(self.grid_shape)

    def _per_model_dt(self, dt) -> np.ndarray:
        """Validate a per-model ``dt`` and check each map's CFL condition."""
        if self.velocity.ndim != 3:
            raise ValueError(
                "a per-model dt needs a [model, depth, offset] velocity stack")
        dt = np.asarray(dt, dtype=np.float64)
        if dt.shape != self.velocity.shape[:1]:
            raise ValueError(
                f"dt must have shape {self.velocity.shape[:1]} (one step per "
                f"model); got {dt.shape}")
        if not np.all(np.isfinite(dt) & (dt > 0)):
            raise ValueError("dt must be finite and strictly positive")
        config = self.config
        courant = (self.velocity.max(axis=(1, 2)) * dt
                   * np.sqrt(1.0 / config.dx**2 + 1.0 / config.dz**2))
        limit = _CFL_LIMITS[config.spatial_order]
        unstable = np.flatnonzero(courant > limit)
        if unstable.size:
            model = int(unstable[0])
            raise ValueError(
                f"CFL number {courant[model]:.3f} of model {model} exceeds "
                f"stability limit {limit:.3f}; reduce dt or increase grid "
                "spacing")
        return dt

    @property
    def grid_shape(self) -> Tuple[int, int]:
        """``(nz, nx)`` of the velocity model and the propagation grid."""
        return self.velocity.shape[-2:]

    @property
    def n_models(self) -> Optional[int]:
        """Number of stacked velocity models, or ``None`` for a single map."""
        return None if self.velocity.ndim == 2 else self.velocity.shape[0]

    # ------------------------------------------------------------------ #
    # simulation
    # ------------------------------------------------------------------ #
    def simulate_shots(self, source_positions: Iterable[Tuple[int, int]],
                       source_wavelet,
                       receiver_positions: Iterable[Tuple[int, int]],
                       record_wavefield: bool = False,
                       wavefield_stride: int = 10):
        """Propagate every shot of the batch through the whole time loop.

        Parameters
        ----------
        source_positions:
            ``(row, column)`` grid index of every shot.
        source_wavelet:
            One wavelet shared by every shot, a ``(n_shots, n_samples)``
            array of per-shot wavelets or, over a velocity stack, a
            ``(n_models, n_shots, n_samples)`` array of per-model wavelets;
            padded/truncated to ``config.n_steps``.
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
        if record_wavefield and (int(wavefield_stride) != wavefield_stride
                                 or wavefield_stride < 1):
            raise ValueError("wavefield_stride must be a positive integer")
        stride = int(wavefield_stride) if record_wavefield else 0

        config = self.config
        n_shots, n_steps = len(sources), config.n_steps
        models = self.velocity.reshape((-1, nz, nx))
        n_models = models.shape[0]
        batch_shape = (n_shots,) if self.n_models is None else (n_models,
                                                                n_shots)
        wavelets = _shot_wavelets(source_wavelet, batch_shape, n_steps)
        # The oracle's time step of each map: a Python float, squared as
        # the oracle squares ``config.dt``.
        steps = [float(step) for step in
                 np.broadcast_to(np.reshape(self._dt, -1), (n_models,))]

        # Imported on first use, so importing the package loads no ctypes.
        from repro.seismic.kernels import load_kernel

        telemetry = get_telemetry()
        kernel = load_kernel()
        start = perf_counter()
        if kernel is None:
            telemetry.counter("propagator.fallback").inc()
            gather, snapshots = self._run_oracle(
                models, steps, sources,
                np.broadcast_to(wavelets, (n_models, n_shots, n_steps)),
                receivers, stride)
        else:
            gather, snapshots = self._run_kernel(
                kernel, models, steps, sources, wavelets, receivers, stride)
        elapsed = perf_counter() - start

        n_wavefields = n_models * n_shots
        if telemetry.enabled:
            telemetry.record_timer("propagator.loop", elapsed, count=n_steps)
            telemetry.counter("propagator.steps").inc(n_steps)
            telemetry.counter("propagator.shots").inc(n_shots)
            telemetry.counter("propagator.wavefields").inc(n_wavefields)
            if elapsed > 0:
                telemetry.gauge("propagator.steps_per_sec").set(
                    n_steps / elapsed)
                telemetry.gauge("propagator.wavefield_steps_per_sec").set(
                    n_steps * n_wavefields / elapsed)

        gather = gather.reshape(batch_shape + gather.shape[-2:])
        if record_wavefield:
            return gather, [snap.reshape(batch_shape + (nz, nx))
                            for snap in snapshots]
        return gather

    def _run_kernel(self, kernel, models, steps, sources, wavelets,
                    receivers, stride):
        """Every wavefield through the compiled loop in one call; the loop
        forms the lane groups itself."""
        from repro.seismic.kernels import leapfrog

        nz, nx = self.grid_shape
        config = self.config
        n_models, n_shots = models.shape[0], len(sources)
        n_steps = config.n_steps
        src_rows, src_cols = np.array(sources, dtype=np.int64).T
        c2 = models**2
        dt2 = np.array([step**2 for step in steps])
        c2dt2 = dt2[:, None, None] * c2
        # The oracle's injection amplitude ``wavelet * (c^2 dt^2 / (dx dz))``.
        src_scale = (c2[:, src_rows, src_cols] * dt2[:, None]
                     / (config.dx * config.dz))
        amps = (src_scale[..., None]
                * wavelets.reshape(-1, n_shots, n_steps)).reshape(-1, n_steps)
        coeffs = _LAPLACIAN_COEFFS[config.spatial_order]
        n_batch = n_models * n_shots
        gather = np.empty((n_batch, config.n_recorded, len(receivers)))
        snaps = np.empty((-(-n_steps // stride) if stride else 0, n_batch,
                          nz, nx))
        leapfrog(kernel, np.zeros((n_batch, 3, nz, nx)), c2dt2, self._mask,
                 coeffs / config.dz**2, coeffs / config.dx**2,
                 np.tile(src_rows * nx + src_cols, n_models), amps,
                 np.array([r * nx + c for r, c in receivers], dtype=np.int64),
                 gather, snaps, config.record_every, stride)
        return gather, list(snaps)

    def _run_oracle(self, models, steps, sources, wavelets, receivers,
                    stride):
        """Every map through :class:`AcousticSimulator2D`, one shot at a
        time: the fallback where the compiled loop is unavailable."""
        runs = [AcousticSimulator2D(velocity, dataclasses.replace(
                    self.config, dt=step)).simulate_shots(
                        sources, shot_wavelets, receivers,
                        record_wavefield=bool(stride),
                        wavefield_stride=stride or 1)
                for velocity, step, shot_wavelets in zip(models, steps,
                                                         wavelets)]
        if not stride:
            return np.stack(runs), []
        return (np.stack([gather for gather, _ in runs]),
                [np.stack(snaps) for snaps in zip(*(s for _, s in runs))])
