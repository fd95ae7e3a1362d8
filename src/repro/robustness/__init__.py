"""Fault injection and measurement realism (``repro.robustness``).

Three layers:

* **Perturbations** (:mod:`repro.robustness.perturbations`) — composable,
  seed-deterministic corruptions of seismic data (band-limited noise, dead
  receivers, shot dropout, gain jitter, static time shifts) applied lazily
  through :class:`PerturbedView`, a data-source wrapper: nothing is
  regenerated, and the perturbed fingerprint is distinct from the clean one.
* **Finite-shot readout** (:mod:`repro.robustness.readout`) —
  :class:`FiniteShotReadout` routes quantum prediction through sampled
  measurement probabilities with configurable ``n_shots``.
* **Degradation harness** (:mod:`repro.robustness.evaluate`) —
  :func:`evaluate_robustness` sweeps severity grids and emits per-family
  SSIM/MSE degradation curves (``benchmarks/bench_robustness.py`` in CI).

Fault *tolerance* (shard checksums, chunk retry, checkpoint recovery) lives
with the code it hardens — :mod:`repro.data.store`,
:mod:`repro.utils.serialization`, :mod:`repro.core.training` — and has no
settings: validation always runs, and the retry budgets are constants.
"""

from repro.robustness.evaluate import (
    KNOWN_FAMILIES,
    default_axes,
    evaluate_robustness,
    make_perturbation,
)
from repro.robustness.perturbations import (
    PERTURBATION_FAMILIES,
    PERTURBATION_VERSION,
    DeadReceivers,
    GainJitter,
    Perturbation,
    PerturbedView,
    ShotDropout,
    TimeShift,
    TraceNoise,
    perturbation_fingerprint,
    perturbation_from_config,
)
from repro.robustness.readout import FiniteShotReadout

__all__ = [
    "KNOWN_FAMILIES",
    "PERTURBATION_FAMILIES",
    "PERTURBATION_VERSION",
    "DeadReceivers",
    "FiniteShotReadout",
    "GainJitter",
    "Perturbation",
    "PerturbedView",
    "ShotDropout",
    "TimeShift",
    "TraceNoise",
    "default_axes",
    "evaluate_robustness",
    "make_perturbation",
    "perturbation_fingerprint",
    "perturbation_from_config",
]
