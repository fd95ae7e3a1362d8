"""Seismic forward-modelling substrate.

This package implements the physics layer the paper's QuGeoData relies on:
the 2-D isotropic constant-density acoustic wave equation (Eq. 1 of the
paper) solved with finite differences and an absorbing boundary, a Ricker
source wavelet, acquisition geometry (surface sources and receivers), and
generators for OpenFWI-style velocity models (FlatVel / CurveVel / FlatFault
families).
"""

from repro.seismic.wavelets import (
    ricker_wavelet,
    dominant_frequency,
    nyquist_record_stride,
)
from repro.seismic.boundary import (
    SpongeBoundary,
    resolve_boundary_name,
    sponge_profile,
)
from repro.seismic.survey import SurveyGeometry
from repro.seismic.acoustic2d import (
    AcousticSimulator2D,
    BatchedAcousticSimulator2D,
    SimulationConfig,
    stable_time_step,
)
from repro.seismic.forward_modeling import (
    ForwardModel,
    forward_model_shot_gather,
    normalize_per_shot,
)
from repro.seismic.velocity_models import (
    VelocityModelConfig,
    flat_layer_model,
    curved_layer_model,
    flat_fault_model,
    random_velocity_models,
    layer_profile,
)

__all__ = [
    "ricker_wavelet",
    "dominant_frequency",
    "nyquist_record_stride",
    "sponge_profile",
    "SpongeBoundary",
    "resolve_boundary_name",
    "SurveyGeometry",
    "AcousticSimulator2D",
    "BatchedAcousticSimulator2D",
    "SimulationConfig",
    "stable_time_step",
    "ForwardModel",
    "forward_model_shot_gather",
    "normalize_per_shot",
    "VelocityModelConfig",
    "flat_layer_model",
    "curved_layer_model",
    "flat_fault_model",
    "random_velocity_models",
    "layer_profile",
]
