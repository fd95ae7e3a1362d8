"""Runs one workload's jobs in a fresh interpreter and writes a JSON record.

``run.py`` starts this script with a scrubbed environment (no inherited
``QUGEO_*`` variables, one BLAS thread, ``PYTHONPATH=src``), so the
library resolves every engine from its own defaults.  Jobs run back to back
until ``--seconds`` have passed.  With ``--trace 1`` untraced and traced
jobs alternate, starting untraced: the traced ones give the per-layer
numbers and the untraced ones the base of the tracing overhead.  With
``--fixture`` the script only builds the workload's fixture and exits.

Between jobs the script times slices of the fixed reference work in
``calibration.py``: a block before the first job, then after every job a
block lasting :data:`CALIBRATION_SHARE` of that job, so the slices sample
the whole window.  The record's ``host_scale`` is ``REFERENCE_SLICE_S``
over the median slice; ``run.py`` multiplies job times by it, so a host
that runs everything slower for a while moves the slices and the jobs
together and leaves the scaled times where they were.  One scale per run,
not per job: single slices are noisier than the jobs they would scale.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from calibration import RECIPES, REFERENCE_SLICE_S, Calibration
from checks import Gate, check_identical
from tracing import Tracer, installed_wrappers, layer_metrics
from workloads import WORKLOAD_CLASSES


#: Calibration time after each job, as a share of that job's wall time.
CALIBRATION_SHARE = 0.2
#: Fewest slices in one calibration block.
MIN_SLICES = 3
#: Length of the block before the first job; it also warms the slice up.
FIRST_BLOCK_S = 0.5


def calibrate(calibration: Calibration, seconds: float) -> List[float]:
    """Slice times of one calibration block lasting about ``seconds``."""
    slices: List[float] = []
    start = perf_counter()
    while len(slices) < MIN_SLICES or perf_counter() - start < seconds:
        slices.append(calibration.slice_s())
    return slices


def reset_peak_rss() -> None:
    """Reset the kernel's peak-RSS mark so it covers only what follows.

    Without ``/proc/self/clear_refs`` the mark covers the whole process.
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak resident set size in MiB since the last reset (or start)."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def resolved_config() -> Dict[str, object]:
    """The engines the default configuration resolves to, and the host."""
    import numpy

    import repro.xm as xm
    from repro.backends import get_backend
    from repro.core import QuGeoVQC, select_step_strategy
    from repro.core.config import QuGeoVQCConfig
    from repro.seismic.boundary import resolve_boundary_name
    from repro.seismic.kernels import resolve_kernel
    from repro.seismic.propagators import default_propagator_name

    kernel, fallback = resolve_kernel(None)
    model = QuGeoVQC(QuGeoVQCConfig(), rng=0)
    record: Dict[str, object] = {
        "backend": get_backend().name,
        "model_backend": model.backend.name,
        "train_step": select_step_strategy(model).name,
        "propagator": default_propagator_name(),
        "kernel": kernel.name,
        "kernel_fallback": fallback,
        "boundary": resolve_boundary_name(None),
        "dtype": xm.get_dtype_policy(None).name,
        "array_module": xm.get_array_module().name,
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }
    for optional in ("scipy", "numba"):
        spec = importlib.util.find_spec(optional)
        record[optional] = (__import__(optional).__version__
                            if spec is not None else None)
    return record


def _traced_job(workload, gate: Gate):
    from repro.telemetry import configure

    telemetry = configure("summary", reset=True)
    tracer = Tracer()
    try:
        with tracer:
            output = workload.run(gate)
        snapshot = telemetry.snapshot()
    finally:
        configure("off", reset=True)
    return output, layer_metrics(tracer, snapshot, output.wall_s)


def run_jobs(workload, seconds: float, trace: bool,
             limit: Optional[float] = None) -> Dict[str, object]:
    """Closed loop of jobs for ``seconds``; returns the run's record.

    Before each untraced job the gate checks that no tracer wrapper is
    installed and that telemetry is off, so timed jobs measure the program
    exactly as users run it.
    """
    from repro.telemetry import get_telemetry

    gate = Gate()
    jobs = []
    reference = None
    calibration = Calibration(RECIPES[workload.name])
    reset_peak_rss()
    start = perf_counter()
    slices = calibrate(calibration, FIRST_BLOCK_S)
    while True:
        traced = trace and len(jobs) % 2 == 1
        entry: Dict[str, object] = {"traced": traced, "ok": False}
        if not traced:
            wrapped = installed_wrappers()
            gate.check(not wrapped, f"untraced job {len(jobs)} runs with "
                                    f"wrappers on {wrapped}")
            gate.check(not get_telemetry().enabled,
                       f"untraced job {len(jobs)} runs with telemetry on")
        job_start = perf_counter()
        try:
            if traced:
                output, entry["layers"] = _traced_job(workload, gate)
            else:
                output = workload.run(gate)
        except Exception:  # a job that raises is a failed operation
            traceback.print_exc(file=sys.stderr)
            gate.check(False, f"job {len(jobs)} raised")
            output = None
        slices += calibrate(calibration,
                            CALIBRATION_SHARE * (perf_counter() - job_start))
        if output is not None:
            if reference is None:
                reference = output.outputs
            else:
                check_identical(gate, output.outputs, reference,
                                f"job {len(jobs)} outputs vs job 0")
            entry.update(ok=True, wall_s=output.wall_s,
                         samples=output.samples, stages=output.stages,
                         quality=output.quality, golden=output.golden)
        jobs.append(entry)
        elapsed = perf_counter() - start
        if limit is not None and elapsed >= limit:
            break
        # A traced run stops only after a traced job.  The window ends as
        # near ``seconds`` as whole rounds allow: another round starts only
        # if less than half of it would run past ``seconds``.
        round_size = 2 if trace else 1
        if len(jobs) % round_size == 0:
            per_round = elapsed / (len(jobs) // round_size)
            if elapsed + per_round / 2 >= seconds:
                break
    return {"jobs": jobs, "window_s": perf_counter() - start,
            "slice_s": statistics.median(slices), "slices": len(slices),
            "host_scale": REFERENCE_SLICE_S / statistics.median(slices),
            "peak_rss_mb": peak_rss_mb(),
            "attempted": gate.attempted, "failed": gate.failed,
            "problems": gate.problems[:20]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOAD_CLASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--limit", type=float,
                        help="stop starting jobs after this many seconds")
    parser.add_argument("--fixture", action="store_true")
    parser.add_argument("--fault", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOAD_CLASSES[args.workload](args.size, args.seed, args.tmp,
                                               fault=args.fault)
    if args.fixture:
        workload.build_fixture()
        return 0
    workload.prepare()
    record = run_jobs(workload, args.seconds, bool(args.trace),
                      limit=args.limit)
    # Resolved after the window, so building a model here warms nothing.
    record["resolved"] = resolved_config()
    args.out.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
