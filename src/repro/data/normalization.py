"""Normalisation helpers.

Velocity maps span 1500-4500 m/s; both the quantum and classical models
regress them in normalised units and the MSE/SSIM in the paper's tables are
computed on the normalised maps.  :class:`VelocityNormalizer` performs the
forward and inverse mapping; :class:`MinMaxNormalizer` is a generic variant
fit from data (used for seismic waveforms when needed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class VelocityNormalizer:
    """Affine map between physical velocities and the unit interval.

    Parameters
    ----------
    min_velocity, max_velocity:
        Physical range in m/s; OpenFWI uses 1500-4500.
    """

    min_velocity: float = 1500.0
    max_velocity: float = 4500.0

    def __post_init__(self) -> None:
        if self.max_velocity <= self.min_velocity:
            raise ValueError("max_velocity must exceed min_velocity")

    def normalize(self, velocity: np.ndarray) -> np.ndarray:
        """Map velocities to [0, 1]."""
        velocity = np.asarray(velocity, dtype=np.float64)
        return (velocity - self.min_velocity) / (self.max_velocity - self.min_velocity)

    def denormalize(self, normalized: np.ndarray) -> np.ndarray:
        """Map unit-interval values back to physical velocities."""
        normalized = np.asarray(normalized, dtype=np.float64)
        return normalized * (self.max_velocity - self.min_velocity) + self.min_velocity


class MinMaxNormalizer:
    """Min-max normaliser fit from data (per-array or global)."""

    def __init__(self) -> None:
        self.minimum: float = 0.0
        self.maximum: float = 1.0
        self._fitted = False

    def fit(self, data: np.ndarray) -> "MinMaxNormalizer":
        """Record the min/max of ``data``.

        Constant data is fitted truthfully (``minimum == maximum``) rather
        than inflating ``maximum``; the degenerate range is handled in
        :meth:`transform` / :meth:`inverse_transform` so the round trip
        ``inverse_transform(transform(x)) == x`` holds.
        """
        data = np.asarray(data, dtype=np.float64)
        self.minimum = float(data.min())
        self.maximum = float(data.max())
        self._fitted = True
        return self

    def transform(self, data: np.ndarray) -> np.ndarray:
        """Map ``data`` to [0, 1] using the fitted range."""
        if not self._fitted:
            raise RuntimeError("call fit() before transform()")
        data = np.asarray(data, dtype=np.float64)
        span = self.maximum - self.minimum
        if span == 0.0:
            # Constant fit: every in-range value maps to 0, and
            # inverse_transform maps 0 back to the constant.
            return np.zeros_like(data)
        return (data - self.minimum) / span

    def inverse_transform(self, data: np.ndarray) -> np.ndarray:
        """Map unit-interval values back to the fitted range."""
        if not self._fitted:
            raise RuntimeError("call fit() before inverse_transform()")
        data = np.asarray(data, dtype=np.float64)
        return data * (self.maximum - self.minimum) + self.minimum
