"""The degradation-scoring harness.

Sweeps perturbation severity grids over a fitted model and reports, per
perturbation family, how SSIM and MSE degrade as severity grows — as
seeded, repeatable curves with spread across seeds rather than single
numbers.  Driven by ``benchmarks/bench_robustness.py`` in CI; usable
directly:

>>> report = evaluate_robustness(model, source, axes=default_axes(),
...                              seeds=(0, 1))
>>> report["curves"][0]["points"][0]["ssim_mean"]

Severity semantics per family (``severity`` is the single knob each axis
sweeps):

============== ======================================== ====================
family         severity meaning                          more severe is
============== ======================================== ====================
noise          target SNR in dB                          smaller
dead-receivers fraction of dead receiver channels        larger
shot-dropout   fraction of dropped shots                 larger
gain-jitter    per-channel gain sigma                    larger
time-shift     max static shift in time samples          larger
finite-shot    measurement shots per execution           smaller
============== ======================================== ====================

``finite-shot`` is a *model* axis (the clean data is decoded through
:class:`~repro.robustness.readout.FiniteShotReadout`); every other family is
a *data* axis (the model is ideal, the data flows through a
:class:`~repro.robustness.perturbations.PerturbedView`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.training import evaluate_data_source
from repro.robustness.perturbations import (
    PERTURBATION_FAMILIES,
    DeadReceivers,
    GainJitter,
    Perturbation,
    PerturbedView,
    ShotDropout,
    TimeShift,
    TraceNoise,
)
from repro.robustness.readout import FiniteShotReadout
from repro.telemetry import get_telemetry

#: Families the harness understands: every perturbation family plus the
#: finite-shot model axis.
KNOWN_FAMILIES = tuple(sorted(PERTURBATION_FAMILIES)) + ("finite-shot",)


def make_perturbation(family: str, severity: float) -> Perturbation:
    """Map ``(family, severity)`` to a configured perturbation."""
    if family == "noise":
        return TraceNoise(snr_db=float(severity))
    if family == "dead-receivers":
        return DeadReceivers(fraction=float(severity))
    if family == "shot-dropout":
        return ShotDropout(fraction=float(severity))
    if family == "gain-jitter":
        return GainJitter(sigma=float(severity))
    if family == "time-shift":
        return TimeShift(max_shift=int(severity))
    raise ValueError(f"unknown perturbation family {family!r}; "
                     f"choose from {sorted(PERTURBATION_FAMILIES)}")


def default_axes(quick: bool = False) -> List[Dict[str, object]]:
    """The standard severity grids (noise, dead receivers, finite shots).

    ``quick=True`` trims each grid for CI smoke runs while keeping at least
    two severities per family so the curves still have a slope.
    """
    if quick:
        return [
            {"family": "noise", "severities": [20.0, 5.0]},
            {"family": "dead-receivers", "severities": [0.25, 0.5]},
            {"family": "finite-shot", "severities": [4096, 256]},
        ]
    return [
        {"family": "noise", "severities": [30.0, 20.0, 10.0, 5.0]},
        {"family": "dead-receivers", "severities": [0.1, 0.25, 0.5]},
        {"family": "shot-dropout", "severities": [0.2, 0.4]},
        {"family": "gain-jitter", "severities": [0.1, 0.3]},
        {"family": "time-shift", "severities": [2, 8]},
        {"family": "finite-shot", "severities": [8192, 1024, 128]},
    ]


def _evaluate_point(model, source, family: str, severity: float, seed: int,
                    batch_size: Optional[int],
                    sample_shape: Optional[Sequence[int]]) -> Dict[str, float]:
    """SSIM / MSE of one ``(family, severity, seed)`` cell."""
    if family == "finite-shot":
        eval_model = FiniteShotReadout(model, n_shots=int(severity), rng=seed)
        eval_source = source
    else:
        eval_model = model
        eval_source = PerturbedView(source,
                                    [make_perturbation(family, severity)],
                                    seed=seed, sample_shape=sample_shape)
    metrics = evaluate_data_source(eval_model, eval_source,
                                   split="perturbed", batch_size=batch_size)
    return {"ssim": metrics["perturbed_ssim"],
            "mse": metrics["perturbed_mse"]}


def evaluate_robustness(model, source,
                        axes: Optional[Sequence[Dict[str, object]]] = None,
                        seeds: Sequence[int] = (0,),
                        batch_size: Optional[int] = None,
                        sample_shape: Optional[Sequence[int]] = None
                        ) -> Dict[str, object]:
    """Sweep severity grids over a fitted model; return degradation curves.

    Parameters
    ----------
    model:
        A fitted model with ``predict_batch`` (QuGeoVQC, QuBatchVQC,
        classical — anything :func:`evaluate_data_source` accepts).  The
        ``finite-shot`` axis additionally requires a quantum model
        (:class:`~repro.core.vqc_core.VQCCore`).
    source:
        Clean *scaled* evaluation data as a data-source-protocol object
        (``ArrayDataSource``, ``ShardLoader``, ...).
    axes:
        ``[{"family": str, "severities": [..]}, ...]``;
        :func:`default_axes` by default.
    seeds:
        Perturbation / sampling seeds; each severity is scored once per
        seed and the curve reports mean and spread.
    batch_size:
        Evaluation chunking (peak-memory control), as in
        :func:`evaluate_data_source`.
    sample_shape:
        Seismic sample shape for sources that do not expose
        ``seismic_sample_shape``.

    Returns
    -------
    dict with:

    * ``baseline`` — clean ``{"ssim", "mse"}`` of the unperturbed source;
    * ``curves`` — one entry per axis: the family and, per severity, the
      per-seed values plus ``ssim_mean`` / ``ssim_std`` /
      ``ssim_degradation`` (baseline minus mean; positive = worse) and the
      matching ``mse_*`` aggregates.
    """
    if not seeds:
        raise ValueError("at least one seed is required")
    axes = list(axes) if axes is not None else default_axes()
    for axis in axes:
        if axis["family"] not in KNOWN_FAMILIES:
            raise ValueError(f"unknown family {axis['family']!r}; "
                             f"choose from {KNOWN_FAMILIES}")
    telemetry = get_telemetry()
    with telemetry.span("robustness.evaluate"):
        clean = evaluate_data_source(model, source, split="clean",
                                     batch_size=batch_size)
        baseline = {"ssim": clean["clean_ssim"], "mse": clean["clean_mse"]}
        curves: List[Dict[str, object]] = []
        for axis in axes:
            family = str(axis["family"])
            points: List[Dict[str, object]] = []
            for severity in axis["severities"]:
                cells = [_evaluate_point(model, source, family, severity,
                                         int(seed), batch_size, sample_shape)
                         for seed in seeds]
                ssims = np.array([cell["ssim"] for cell in cells])
                mses = np.array([cell["mse"] for cell in cells])
                points.append({
                    "severity": float(severity),
                    "seeds": [int(seed) for seed in seeds],
                    "ssim": [float(v) for v in ssims],
                    "mse": [float(v) for v in mses],
                    "ssim_mean": float(ssims.mean()),
                    "ssim_std": float(ssims.std()),
                    "ssim_degradation": float(baseline["ssim"]
                                              - ssims.mean()),
                    "mse_mean": float(mses.mean()),
                    "mse_std": float(mses.std()),
                    "mse_degradation": float(mses.mean() - baseline["mse"]),
                })
                telemetry.counter("robustness.cells").inc(len(cells))
            curves.append({"family": family, "points": points})
    return {"baseline": baseline, "curves": curves}
