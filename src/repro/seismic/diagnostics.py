"""Quantitative diagnostics for the seismic propagator.

The headline tool is :func:`edge_reflection_energy`, which measures how much
spurious energy an absorbing boundary reflects back into the model: it
simulates one shot on a homogeneous medium twice — once with the boundary
under test, once on a grid padded so far that no edge reflection can reach
the receivers inside the simulated window — and reports the relative energy
of the difference.  A perfect absorber scores 0; a hard (reflecting) edge
scores O(1).  The score is what the PML-vs-sponge tests and the benchmark
suite use to claim "equal or better absorption from a thinner pad".
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np

from repro.seismic.acoustic2d import (
    BatchedAcousticSimulator2D,
    SimulationConfig,
    stable_time_step,
)
from repro.seismic.boundary import SpongeBoundary
from repro.seismic.wavelets import ricker_wavelet


def _reference_pad_width(velocity: float, duration: float, dx: float) -> int:
    """Pad width that keeps outer-edge reflections outside the time window.

    The earliest possible contaminating arrival travels from the interior out
    to the reference grid's edge and back, so a pad of ``c * T / (2 * dx)``
    cells (plus a small safety margin) guarantees the reference gather is
    reflection-free for the whole recording.
    """
    return int(np.ceil(velocity * duration / (2.0 * dx))) + 4


def edge_reflection_energy(boundary,
                           grid_shape: Tuple[int, int] = (40, 40),
                           velocity: float = 2000.0,
                           dx: float = 10.0,
                           n_steps: int = 240,
                           peak_frequency: float = 15.0) -> float:
    """Relative reflected-energy score of an absorbing ``boundary``.

    Parameters
    ----------
    boundary:
        A :class:`~repro.seismic.boundary.SpongeBoundary` or
        :class:`~repro.seismic.boundary.PMLBoundary`.  It is evaluated in
        ``pad_grid`` mode (the absorbing band sits outside the homogeneous
        model) so the interior physics is identical to the reference run and
        any gather difference is attributable to the boundary alone.
    grid_shape:
        Interior model size ``(nz, nx)`` in cells.
    velocity:
        Homogeneous medium velocity in m/s.
    dx:
        Grid spacing (both axes) in metres.
    n_steps:
        Simulated time steps; the default gives the wavefront several
        boundary round trips on the default grid.
    peak_frequency:
        Ricker source peak frequency in Hz.

    Returns
    -------
    float
        ``sum((g - g_ref)**2) / sum(g_ref**2)`` over a surface receiver
        line, where ``g_ref`` comes from a run padded wide enough that no
        edge reflection arrives inside the window.
    """
    nz, nx = int(grid_shape[0]), int(grid_shape[1])
    if nz < 8 or nx < 8:
        raise ValueError("grid_shape must be at least 8x8 cells")
    model = np.full((nz, nx), float(velocity), dtype=np.float64)
    dt = stable_time_step(float(velocity), dx=dx, dz=dx, spatial_order=4)
    duration = n_steps * dt

    test_boundary = dataclasses.replace(boundary, pad_grid=True)
    config = SimulationConfig(dx=dx, dz=dx, dt=dt, n_steps=int(n_steps),
                              spatial_order=4, boundary=test_boundary)

    ref_width = _reference_pad_width(float(velocity), duration, dx)
    ref_boundary = SpongeBoundary(
        width=ref_width, pad_grid=True,
        free_surface=getattr(boundary, "free_surface", True))
    ref_config = dataclasses.replace(config, boundary=ref_boundary)

    sources = np.array([[2, nx // 2]])
    receivers = np.stack([np.ones(nx - 4, dtype=int),
                          np.arange(2, nx - 2)], axis=1)
    wavelet = ricker_wavelet(int(n_steps), dt, float(peak_frequency))

    gather = BatchedAcousticSimulator2D(model, config).simulate_shots(
        sources, wavelet, receivers)
    reference = BatchedAcousticSimulator2D(model, ref_config).simulate_shots(
        sources, wavelet, receivers)

    reference_energy = float(np.sum(reference ** 2))
    if reference_energy == 0.0:
        raise RuntimeError("reference gather has zero energy; "
                           "check the source/receiver layout")
    return float(np.sum((gather - reference) ** 2)) / reference_energy
