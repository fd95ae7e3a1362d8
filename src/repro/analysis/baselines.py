"""Pinned baselines for the fingerprint-hygiene rule (QG007).

Each entry pins the *field list* of one config dataclass whose values are
digested into a cache fingerprint, together with the format-version
constant that must be bumped when those fields change:

* :func:`repro.data.store.dataset_fingerprint` digests every
  ``OpenFWIConfig`` field (including the nested ``VelocityModelConfig``)
  under ``DATA_FORMAT_VERSION`` — an unversioned field change silently
  addresses *stale* cached shards as if they matched the new config.
* :func:`repro.robustness.perturbations.perturbation_fingerprint` digests
  each perturbation's config dict under ``PERTURBATION_VERSION`` with the
  same failure mode for perturbed-view caches.

When you intentionally change a pinned class: bump the version constant,
then update the matching entry here (fields *and* ``pinned_version``) in
the same commit.  QG007 fails until both halves agree, which is exactly
the point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class FingerprintBaseline:
    """Pinned (fields, version) pair for one fingerprinted config class."""

    config_class: str
    #: Project-relative path of the module defining ``config_class``.
    config_module: str
    #: Name of the format-version constant guarding the class.
    version_const: str
    #: Project-relative path of the module defining ``version_const``.
    version_module: str
    #: The version value this baseline was pinned against.
    pinned_version: int
    #: The dataclass field names at pin time (declaration order).
    pinned_fields: Tuple[str, ...]


FINGERPRINT_BASELINES: Tuple[FingerprintBaseline, ...] = (
    FingerprintBaseline(
        config_class="OpenFWIConfig",
        config_module="src/repro/data/openfwi.py",
        version_const="DATA_FORMAT_VERSION",
        version_module="src/repro/data/store.py",
        pinned_version=3,
        pinned_fields=(
            "n_samples", "velocity_shape", "n_sources", "n_receivers",
            "n_time_steps", "dx", "peak_frequency", "family", "model_config",
            "boundary_width", "spatial_order", "chunk_size", "boundary",
            "record_every",
        ),
    ),
    FingerprintBaseline(
        config_class="VelocityModelConfig",
        config_module="src/repro/seismic/velocity_models.py",
        version_const="DATA_FORMAT_VERSION",
        version_module="src/repro/data/store.py",
        pinned_version=3,
        pinned_fields=(
            "shape", "min_velocity", "max_velocity", "min_layers",
            "max_layers", "increasing_velocity",
        ),
    ),
    FingerprintBaseline(
        config_class="TraceNoise",
        config_module="src/repro/robustness/perturbations.py",
        version_const="PERTURBATION_VERSION",
        version_module="src/repro/robustness/perturbations.py",
        pinned_version=1,
        pinned_fields=("snr_db", "band"),
    ),
    FingerprintBaseline(
        config_class="DeadReceivers",
        config_module="src/repro/robustness/perturbations.py",
        version_const="PERTURBATION_VERSION",
        version_module="src/repro/robustness/perturbations.py",
        pinned_version=1,
        pinned_fields=("fraction",),
    ),
    FingerprintBaseline(
        config_class="ShotDropout",
        config_module="src/repro/robustness/perturbations.py",
        version_const="PERTURBATION_VERSION",
        version_module="src/repro/robustness/perturbations.py",
        pinned_version=1,
        pinned_fields=("fraction",),
    ),
    FingerprintBaseline(
        config_class="GainJitter",
        config_module="src/repro/robustness/perturbations.py",
        version_const="PERTURBATION_VERSION",
        version_module="src/repro/robustness/perturbations.py",
        pinned_version=1,
        pinned_fields=("sigma",),
    ),
    FingerprintBaseline(
        config_class="TimeShift",
        config_module="src/repro/robustness/perturbations.py",
        version_const="PERTURBATION_VERSION",
        version_module="src/repro/robustness/perturbations.py",
        pinned_version=1,
        pinned_fields=("max_shift",),
    ),
)
