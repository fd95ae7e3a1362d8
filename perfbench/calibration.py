"""A fixed reference computation that measures how fast the host runs now.

On a shared host the same job can take 30% longer from one minute to the
next while its CPU time stays equal to its wall time: the processor itself
runs slower (shared caches, sibling threads, clock), not the scheduler.
The benchmark therefore times this slice, whose code never changes, between
its jobs, and scales job times by the slice's median time (see ``run.py``).

A slice is made of the kinds of work the pipeline does, in about the same
array sizes, with numpy and scipy only (never ``repro``, so a change to the
program cannot change the reference):

* ``gates``: single- and two-qubit gates applied to an 8-qubit statevector
  in a Python loop (the default ``numpy`` backend's hot loop);
* ``wavefields``: a leap-frog update of five 70x70 wavefields with
  ``correlate1d`` Laplacians (the batched propagator);
* ``convolutions``: an ``einsum`` of im2col columns against a small kernel
  matrix (the CNN compressor);
* ``compress``: ``zlib`` compression of a float array (the shard store).

Kinds of work slow down by different amounts when the host is busy, so each
workload's slice mixes them in about the shares of that workload's time the
traced run attributes to the matching layers (:data:`RECIPES`).
"""

from __future__ import annotations

import zlib
from time import perf_counter
from typing import Dict

import numpy as np

try:
    from scipy.ndimage import correlate1d
except ImportError:  # the program runs without scipy too
    correlate1d = None

#: A round figure near the median slice time on a 2-vCPU Xeon VM.  Scaled
#: times read "seconds on a host where a slice takes this long"; the
#: constant only sets the scale.
REFERENCE_SLICE_S = 0.04

#: Workload -> repeats of each kind of work in one slice (35-50 ms).
RECIPES: Dict[str, Dict[str, int]] = {
    # quantum gradients ~70%, datagen ~25%
    "fit_paper": {"gates": 140, "wavefields": 40},
    # propagator ~65%, shard writes and reads ~35%
    "flatvel_store": {"wavefields": 100, "compress": 3},
    # quantum predict ~65%, CNN compressor ~35%
    "serve_cnn": {"gates": 120, "convolutions": 60},
}

_STENCIL = np.array([1.0, -2.0, 1.0])


def _laplacian(field: np.ndarray, out: np.ndarray) -> None:
    if correlate1d is not None:
        correlate1d(field, _STENCIL, axis=-1, output=out, mode="nearest")
        out += correlate1d(field, _STENCIL, axis=-2, mode="nearest")
        return
    out[...] = 0.0
    out[..., 1:-1] += field[..., 2:] - 2 * field[..., 1:-1] + field[..., :-2]
    out[..., 1:-1, :] += (field[..., 2:, :] - 2 * field[..., 1:-1, :]
                          + field[..., :-2, :])


class Calibration:
    """One workload's slice; holds its inputs, so a slice allocates like
    the pipeline does."""

    def __init__(self, recipe: Dict[str, int]) -> None:
        rng = np.random.default_rng(20240601)
        state = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        self.state = state / np.linalg.norm(state)
        self.one = np.linalg.qr(rng.standard_normal((2, 2))
                                + 1j * rng.standard_normal((2, 2)))[0]
        self.two = np.linalg.qr(rng.standard_normal((4, 4))
                                + 1j * rng.standard_normal((4, 4)))[0]
        self.two = self.two.reshape(2, 2, 2, 2)
        self.field = rng.standard_normal((5, 70, 70)) * 1e-3
        self.velocity = 0.05 + 0.02 * rng.random((70, 70))
        self.columns = rng.standard_normal((4, 72, 256))
        self.kernel = rng.standard_normal((8, 72))
        self.payload = np.round(rng.standard_normal(8192), 3).tobytes()
        self.sink = 0.0
        self.work = [(getattr(self, part), repeats)
                     for part, repeats in recipe.items()]

    def gates(self, layers: int) -> None:
        state = self.state
        for layer in range(layers):
            for qubit in range(8):
                tensor = state.reshape((2,) * 8)
                if layer % 2:
                    other = (qubit + 1) % 8
                    tensor = np.tensordot(self.two, tensor,
                                          axes=([2, 3], [qubit, other]))
                    tensor = np.moveaxis(tensor, (0, 1), (qubit, other))
                else:
                    tensor = np.tensordot(self.one, tensor, axes=([1], [qubit]))
                    tensor = np.moveaxis(tensor, 0, qubit)
                state = np.ascontiguousarray(tensor).reshape(256)
        self.sink += float(np.abs(state[0]))

    def wavefields(self, steps: int) -> None:
        current = self.field.copy()
        previous = np.zeros_like(current)
        laplacian = np.empty_like(current)
        for _ in range(steps):
            _laplacian(current, laplacian)
            laplacian *= self.velocity
            following = 2.0 * current - previous + laplacian
            following *= 0.999
            previous, current = current, following
        self.sink += float(current[0, 35, 35])

    def convolutions(self, repeats: int) -> None:
        for _ in range(repeats):
            out = np.einsum("ok,nkl->nol", self.kernel, self.columns)
            self.sink += float(out[0, 0, 0])

    def compress(self, repeats: int) -> None:
        for _ in range(repeats):
            self.sink += len(zlib.compress(self.payload, 6))

    def slice_s(self) -> float:
        """Seconds one fixed slice of reference work takes now."""
        start = perf_counter()
        for work, repeats in self.work:
            work(repeats)
        return perf_counter() - start
