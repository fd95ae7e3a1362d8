"""Shared pytest fixtures.

The heavier fixtures (small synthetic datasets, scaled datasets) are session
scoped so the many tests that need example data do not repeatedly pay for
forward modelling.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import QuGeoDataConfig
from repro.core.data_scaling import DSampleScaler, ForwardModelingScaler
from repro.data.openfwi import build_flatvel_dataset
from repro.seismic.forward_modeling import ForwardModel


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def tiny_dataset():
    """A very small full-resolution FlatVel-style dataset (fast to build)."""
    return build_flatvel_dataset(n_samples=6, velocity_shape=(24, 24),
                                 n_time_steps=120, n_sources=3, rng=7)


@pytest.fixture(scope="session")
def small_data_config():
    """Scaling targets small enough for fast quantum tests (64-value input).

    The 6x6 velocity map keeps both decoders valid on the 6 data qubits the
    64-value input needs (the pixel decoder reads 36 <= 2**6 amplitudes, the
    layer decoder needs one qubit per row).
    """
    return QuGeoDataConfig(scaled_seismic_shape=(1, 8, 8),
                           scaled_velocity_shape=(6, 6))


@pytest.fixture(scope="session")
def tiny_scaled_dataset(tiny_dataset, small_data_config):
    """The tiny dataset scaled with the physics-guided scaler (64 inputs)."""
    scaler = ForwardModelingScaler(small_data_config,
                                   simulation_shape=(16, 16),
                                   simulation_steps=64)
    return scaler.scale_dataset(tiny_dataset)


@pytest.fixture(scope="session")
def tiny_dsample_dataset(tiny_dataset, small_data_config):
    """The tiny dataset scaled with the nearest-neighbour baseline."""
    return DSampleScaler(small_data_config).scale_dataset(tiny_dataset)


@pytest.fixture()
def counting_forward(monkeypatch):
    """Count in-process forward-modelling calls."""
    counter = {"calls": 0}
    original = ForwardModel.model_shots_batch

    def counting(self, *args, **kwargs):
        counter["calls"] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ForwardModel, "model_shots_batch", counting)
    return counter
