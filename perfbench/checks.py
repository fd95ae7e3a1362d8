"""Correctness gate of the benchmark.

Every job checks its outputs.  Each check is one attempted operation; a
check that fails is one failed operation, so ``failed / attempted`` is the
run's ``failed_fraction``.  The checks:

* every gather, velocity map and prediction is finite and inside its
  contract (gathers are peak-normalised per shot, maps lie in the velocity
  range);
* the warm-loaded store arrays equal the cold-built ones bit for bit;
* a loaded pipeline predicts exactly what the pipeline that saved it did;
* every job of a run reproduces the first job's outputs exactly;
* for the default seed, the pinned golden values below are met within
  :data:`GOLDEN_RTOL`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

DEFAULT_SEED = 0

#: Relative tolerance of the golden pins.  The pipeline is deterministic
#: in float64; the slack only absorbs summation-order differences between
#: BLAS builds.
GOLDEN_RTOL = 1e-9

#: ``(workload, size) -> {value name: pinned value}`` for ``DEFAULT_SEED``,
#: measured with numpy 2.4 on the default engines (numpy backend, batched
#: propagator, python kernel, sponge boundary, float64).  A run prints the
#: values it compared under ``golden`` in its ``perfbench`` record; a
#: change that alters the pipeline's numbers on purpose re-pins them here.
GOLDEN: Dict[Tuple[str, str], Dict[str, float]] = {
    ("fit_paper", "full"): {"test_ssim": 0.16862416285165688,
                            "test_mse": 0.08160359683991607,
                            "prediction_sum": 1549129.5563519537},
    ("fit_paper", "tiny"): {"test_ssim": -0.18927912998191398,
                            "test_mse": 0.10380886829689107,
                            "prediction_sum": 381891.2475352285},
    ("flatvel_store", "full"): {"seismic_sum": 183.0289451031898,
                                "scaled_sum": -1.4108812778565376},
    ("flatvel_store", "tiny"): {"seismic_sum": -111.59307078104982,
                                "scaled_sum": -10.379573353717788},
    ("serve_cnn", "full"): {"test_ssim": 0.3519920873029978,
                            "test_mse": 0.07616551174776755,
                            "prediction_sum": 12261064.104161868},
    ("serve_cnn", "tiny"): {"test_ssim": 0.22282958310294212,
                            "test_mse": 0.08762148884448105,
                            "prediction_sum": 1170731.2824984118},
}

# Per-shot peak normalisation bounds every gather sample by 1 in magnitude.
_GATHER_LIMIT = 1.0 + 1e-12


class Gate:
    """Counts attempted and failed checks and keeps the failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def check_gathers(gate: Gate, gathers: Iterable[np.ndarray], what: str) -> None:
    """Each gather is finite and within the per-shot normalisation bound."""
    for index, gather in enumerate(gathers):
        gather = np.asarray(gather)
        ok = (gather.size > 0 and bool(np.all(np.isfinite(gather)))
              and float(np.max(np.abs(gather))) <= _GATHER_LIMIT)
        gate.check(ok, f"{what}[{index}]: non-finite or unnormalised gather")


def check_maps(gate: Gate, maps: Iterable[np.ndarray],
               low: float, high: float, what: str) -> None:
    """Each map is finite with every value in ``[low, high]``."""
    for index, values in enumerate(maps):
        values = np.asarray(values)
        ok = (values.size > 0 and bool(np.all(np.isfinite(values)))
              and float(values.min()) >= low and float(values.max()) <= high)
        gate.check(ok, f"{what}[{index}]: non-finite or outside "
                       f"[{low}, {high}]")


def check_identical(gate: Gate, actual: Iterable[np.ndarray],
                    expected: Iterable[np.ndarray], what: str) -> None:
    """Pairwise bit-for-bit equality (shape, dtype and every value)."""
    actual, expected = list(actual), list(expected)
    gate.check(len(actual) == len(expected),
               f"{what}: {len(actual)} arrays, expected {len(expected)}")
    for index, (got, want) in enumerate(zip(actual, expected)):
        got, want = np.asarray(got), np.asarray(want)
        ok = got.dtype == want.dtype and np.array_equal(got, want)
        gate.check(ok, f"{what}[{index}]: differs from the reference")


def check_golden(gate: Gate, workload: str, size: str, seed: int,
                 values: Dict[str, float]) -> None:
    """Compare ``values`` with the pins for the default seed, if any."""
    pins = GOLDEN.get((workload, size))
    if seed != DEFAULT_SEED or not pins:
        return
    for name, pinned in pins.items():
        got = values.get(name, float("nan"))
        ok = bool(np.isclose(got, pinned, rtol=GOLDEN_RTOL, atol=0.0))
        gate.check(ok, f"golden {name}: {got!r} != pinned {pinned!r}")
