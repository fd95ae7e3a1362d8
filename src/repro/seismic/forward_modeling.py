"""Multi-shot forward modelling: velocity map -> seismic shot gathers.

This is the "Forward Modeling" step of QuGeoData (Section 3.1.1 of the
paper): given a velocity map and an acquisition geometry, simulate the
pressure wavefield of every source with the acoustic propagator and record
it at every receiver.  The result has OpenFWI's layout
``(n_sources, n_time_steps, n_receivers)``.

Shots are propagated by
:class:`~repro.seismic.acoustic2d.BatchedAcousticSimulator2D`, which runs
every shot (and, on the multi-map path, several velocity models) through
one call of its compiled time loop, bit-identical to the scalar reference
:class:`~repro.seismic.acoustic2d.AcousticSimulator2D`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.seismic.acoustic2d import (
    BatchedAcousticSimulator2D,
    SimulationConfig,
    stable_time_step,
)
from repro.seismic.survey import SurveyGeometry
from repro.seismic.wavelets import ricker_wavelet
from repro.telemetry import get_telemetry


def normalize_per_shot(data: np.ndarray) -> np.ndarray:
    """Scale every shot gather by its own maximum absolute amplitude.

    Operates on the trailing ``(n_steps, n_receivers)`` axes, so it accepts
    both single-map ``(n_sources, n_steps, n_receivers)`` stacks and batched
    ``(n_models, n_sources, n_steps, n_receivers)`` arrays.  Shots with zero
    amplitude are left untouched instead of dividing by zero.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim < 2:
        raise ValueError("expected gathers with trailing (time, receiver) axes")
    peak = np.max(np.abs(data), axis=(-2, -1), keepdims=True)
    return data / np.where(peak > 0.0, peak, 1.0)


@dataclass
class ForwardModel:
    """Forward-modelling engine binding a survey to a simulation config.

    Parameters
    ----------
    survey:
        Acquisition geometry (sources and receivers on the surface).
    config:
        Finite-difference discretisation.  ``config.n_steps`` sets the number
        of recorded time samples per trace.
    peak_frequency:
        Dominant frequency of the Ricker source wavelet in Hz.
    normalize:
        If ``True``, each shot gather is scaled by its own maximum absolute
        amplitude so gathers from different velocity models (and shots of
        different strengths) are comparable.
    """

    survey: SurveyGeometry
    config: SimulationConfig = field(default_factory=SimulationConfig)
    peak_frequency: float = 15.0
    normalize: bool = True

    def source_wavelet(self, dt: Optional[float] = None) -> np.ndarray:
        """Return the Ricker source wavelet of every shot, sampled at ``dt``
        (default ``config.dt``)."""
        return ricker_wavelet(self.config.n_steps,
                              self.config.dt if dt is None else dt,
                              self.peak_frequency)

    def _check_width(self, velocity: np.ndarray) -> None:
        if velocity.shape[-1] != self.survey.nx:
            raise ValueError(
                f"velocity width {velocity.shape[-1]} does not match survey "
                f"nx {self.survey.nx}")

    def model_shots(self, velocity: np.ndarray) -> np.ndarray:
        """Simulate every shot of the survey over ``velocity``.

        A batch of one through :meth:`model_shots_batch`.  Returns an array
        of shape ``(n_sources, n_steps, n_receivers)``.
        """
        velocity = np.asarray(velocity, dtype=np.float64)
        if velocity.ndim != 2:
            raise ValueError("velocity must be a 2-D map [depth, offset]")
        return self.model_shots_batch(velocity[None])[0]

    def model_shots_batch(self, velocities: np.ndarray,
                          chunk_size: Optional[int] = None,
                          dt: Optional[np.ndarray] = None) -> np.ndarray:
        """Simulate the survey over a stack of velocity maps at once.

        Each chunk of ``chunk_size`` maps runs in one propagator call.

        Parameters
        ----------
        velocities:
            ``(n_models, nz, nx)`` stack of velocity maps sharing the
            survey's geometry.
        chunk_size:
            Maps propagated per batched call (bounds peak memory:
            each chunk holds ``chunk * n_sources`` wavefields).  ``None``
            propagates the whole stack in one call.
        dt:
            Optional ``(n_models,)`` time step per map, replacing
            ``config.dt``: each map is CFL-checked, scaled and driven by a
            Ricker wavelet sampled at its own step.

        Returns an array of shape
        ``(n_models, n_sources, n_steps, n_receivers)``.
        """
        velocities = np.asarray(velocities, dtype=np.float64)
        if velocities.ndim != 3:
            raise ValueError(
                "velocities must be a 3-D stack [model, depth, offset]")
        if velocities.shape[0] == 0:
            raise ValueError("velocity stack must contain at least one model")
        self._check_width(velocities)
        sources = self.survey.source_positions()
        receivers = self.survey.receiver_positions()
        n_models = velocities.shape[0]
        per_model = dt is not None
        if per_model:
            dt = np.asarray(dt, dtype=np.float64)
            if dt.shape != (n_models,):
                raise ValueError(
                    f"dt must have shape ({n_models},), one step per model; "
                    f"got {dt.shape}")
            # (n_models, n_sources, n_steps): each map's own Ricker samples.
            wavelet = np.broadcast_to(
                np.stack([self.source_wavelet(step) for step in dt])[:, None],
                (n_models, len(sources), self.config.n_steps))
        else:
            wavelet = self.source_wavelet()
        chunk = n_models if chunk_size is None else max(1, int(chunk_size))
        telemetry = get_telemetry()
        telemetry.counter("forward_model.calls").inc()
        telemetry.counter("forward_model.models").inc(n_models)
        with telemetry.span("forward_model.shots"):
            blocks = []
            for start in range(0, n_models, chunk):
                maps = slice(start, start + chunk)
                simulator = BatchedAcousticSimulator2D(
                    velocities[maps], self.config,
                    dt=dt[maps] if per_model else None)
                blocks.append(simulator.simulate_shots(
                    sources, wavelet[maps] if per_model else wavelet,
                    receivers))
            data = np.concatenate(blocks, axis=0)
            if self.normalize:
                data = normalize_per_shot(data)
            return data


def forward_model_shot_gather(velocity: np.ndarray,
                              n_sources: int = 5,
                              n_receivers: Optional[int] = None,
                              n_steps: int = 256,
                              dx: float = 10.0,
                              dt: Optional[float] = None,
                              peak_frequency: float = 15.0,
                              boundary_width: int = 8,
                              normalize: bool = True) -> np.ndarray:
    """Convenience wrapper: build a survey + config and model all shots.

    Parameters mirror :class:`ForwardModel`; ``dt`` defaults to a CFL-stable
    value for the given velocity model, and a user-supplied ``dt`` is
    CFL-validated up front so violations surface with the caller's
    parameters instead of deep inside the simulator.  The receiver count
    defaults to the model width.

    ``velocity`` is one ``(nz, nx)`` map, run through
    :meth:`ForwardModel.model_shots`, or an ``(n_models, nz, nx)`` stack,
    run through one :meth:`ForwardModel.model_shots_batch` call in which
    every map keeps the time step (CFL-stable by default) and the Ricker
    samples it would get on its own, so each gather equals the single-map
    call's bit for bit.

    Returns an array of shape ``(n_sources, n_steps, n_receivers)``, with a
    leading ``n_models`` axis for a stack.
    """
    velocity = np.asarray(velocity, dtype=np.float64)
    if velocity.ndim not in (2, 3):
        raise ValueError("velocity must be a 2-D map [depth, offset] or a "
                         "3-D stack [model, depth, offset]")
    if velocity.size == 0:
        raise ValueError("velocity must contain at least one model")
    nz, nx = velocity.shape[-2:]
    if n_receivers is None:
        n_receivers = nx
    from repro.seismic.boundary import SpongeBoundary

    boundary = SpongeBoundary(width=min(boundary_width, max(1, min(nz, nx) // 3 - 1)))
    peaks = [float(v.max()) for v in velocity.reshape(-1, nz, nx)]
    if dt is None:
        steps = [stable_time_step(peak, dx=dx, dz=dx, spatial_order=4)
                 for peak in peaks]
    else:
        steps = [dt] * len(peaks)
    # A stack's per-model steps replace the config's dt.
    config = SimulationConfig(dx=dx, dz=dx, dt=steps[0], n_steps=n_steps,
                              spatial_order=4, boundary=boundary)
    if velocity.ndim == 2:
        config.validate_cfl(peaks[0])
    survey = SurveyGeometry(n_sources=n_sources, n_receivers=n_receivers, nx=nx)
    model = ForwardModel(survey=survey, config=config,
                         peak_frequency=peak_frequency, normalize=normalize)
    if velocity.ndim == 3:
        return model.model_shots_batch(velocity, dt=steps)
    return model.model_shots(velocity)
