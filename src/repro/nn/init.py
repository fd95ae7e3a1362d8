"""Weight initialisation schemes for the NN substrate."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import RngLike, ensure_rng


def kaiming_uniform(shape, fan_in: int, rng: RngLike = None) -> np.ndarray:
    """He/Kaiming uniform initialisation (matches PyTorch's Conv/Linear default)."""
    if fan_in <= 0:
        raise ValueError("fan_in must be positive")
    rng = ensure_rng(rng)
    bound = np.sqrt(1.0 / fan_in) * np.sqrt(3.0)
    return rng.uniform(-bound, bound, size=shape)


def uniform_bias(shape, fan_in: int, rng: RngLike = None) -> np.ndarray:
    """Uniform bias initialisation in ``[-1/sqrt(fan_in), 1/sqrt(fan_in)]``."""
    if fan_in <= 0:
        raise ValueError("fan_in must be positive")
    rng = ensure_rng(rng)
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)

