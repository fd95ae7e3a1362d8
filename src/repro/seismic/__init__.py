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
    BOUNDARY_ENV_VAR,
    BOUNDARY_KINDS,
    PMLBoundary,
    SpongeBoundary,
    default_boundary_name,
    make_boundary,
    pml_profiles,
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
from repro.seismic.propagators import (
    PROPAGATORS,
    default_propagator_name,
    get_propagator,
)
from repro.seismic.kernels import (
    KERNELS,
    default_kernel_name,
    get_kernel,
    resolve_kernel,
)
from repro.seismic.diagnostics import edge_reflection_energy
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
    "pml_profiles",
    "SpongeBoundary",
    "PMLBoundary",
    "BOUNDARY_ENV_VAR",
    "BOUNDARY_KINDS",
    "default_boundary_name",
    "resolve_boundary_name",
    "make_boundary",
    "KERNELS",
    "default_kernel_name",
    "get_kernel",
    "resolve_kernel",
    "edge_reflection_energy",
    "SurveyGeometry",
    "AcousticSimulator2D",
    "BatchedAcousticSimulator2D",
    "SimulationConfig",
    "stable_time_step",
    "PROPAGATORS",
    "default_propagator_name",
    "get_propagator",
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
