#!/usr/bin/env python3
"""QuGeo pipeline benchmark: one command prints every metric and gates output.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fit_paper --seed 1 --seconds 30 --trace 0

Workloads: ``fit_paper``, ``flatvel_store`` and ``serve_cnn`` (see
``perfbench/README.md``).  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` the per-layer metrics of a traced
run.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a ``{"perfbench": ...}`` record with the resolved engines, stage
throughputs and every job's figures.

The script itself uses only the standard library.  It scrubs the
environment (inherited ``QUGEO_*`` variables are dropped, BLAS runs one
thread, ``PYTHONPATH`` points at ``src``), measures
import time in fresh interpreters (``setup_s``), builds the ``serve_cnn``
fixture in a separate process, and runs the jobs in ``child.py``.  Every
file it writes lives under ``.perfbench-tmp/`` in the checkout and is
removed before it exits.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Dict, List

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from metrics import END_TO_END, PER_LAYER, STAGES, WORKLOADS  # noqa: E402

#: Fresh interpreters timed for ``setup_s`` before and again after the
#: jobs, so the median spans two moments of a run (after one warm-up).
IMPORT_SAMPLES = 3
#: Interpreters profiled with ``-X importtime`` per traced run.
IMPORTTIME_SAMPLES = 3
IMPORT_STATEMENT = "import repro.core, repro.data"
#: Every run ends within this many seconds, or fails.
DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not run to a result."""


def clean_env(tmp: Path) -> Dict[str, str]:
    """The environment every child runs with.

    BLAS runs one thread: the pipeline's arrays are small, and on a shared
    host of a few cores a second BLAS thread mostly waits for a core.
    """
    inherited_env = os.environ.items()  # qugeo-lint: disable=QG001 -- the harness scrubs the children's environment before any repro import
    env = {key: value for key, value in inherited_env
           if not key.startswith("QUGEO_")}
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    inherited_path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (str(SRC) + os.pathsep + inherited_path
                         if inherited_path else str(SRC))
    env["TMPDIR"] = str(tmp)
    return env


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = perf_counter() + seconds

    def remaining(self) -> float:
        left = self.end - perf_counter()
        if left <= 1.0:
            raise BenchError("run deadline reached")
        return left


def _python(args: List[str], env: Dict[str, str], deadline: Deadline,
            capture: bool = True) -> subprocess.CompletedProcess:
    """Run the current interpreter to completion (killed at the deadline)."""
    try:
        completed = subprocess.run(
            [sys.executable] + args, env=env, cwd=str(ROOT),
            stdout=subprocess.PIPE if capture else sys.stderr,
            stderr=subprocess.PIPE if capture else None,
            text=True, timeout=deadline.remaining())
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out: {args[:3]}") from exc
    if completed.returncode != 0:
        if capture:
            sys.stderr.write(completed.stderr or "")
        raise BenchError(f"child exited {completed.returncode}: {args[:3]}")
    return completed


def time_import(env: Dict[str, str], deadline: Deadline) -> float:
    """Seconds a fresh interpreter takes to import the package."""
    code = ("import time; start = time.perf_counter(); "
            f"{IMPORT_STATEMENT}; print(time.perf_counter() - start)")
    return float(_python(["-c", code], env, deadline).stdout.split()[-1])


_IMPORTTIME = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)\s*$")


def parse_importtime(stderr: str) -> Dict[str, float]:
    """Cumulative seconds of ``repro.core`` (top level) and ``scipy.ndimage``."""
    found = {"repro_core": 0.0, "scipy_ndimage": 0.0}
    for line in stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if not match:
            continue
        cumulative, indent, module = match.groups()
        seconds = int(cumulative) / 1e6
        if module == "repro.core" and len(indent) <= 1:
            found["repro_core"] = seconds
        elif module == "scipy.ndimage" and not found["scipy_ndimage"]:
            found["scipy_ndimage"] = seconds
    return found


def measure_importtime(env: Dict[str, str],
                       deadline: Deadline) -> Dict[str, float]:
    profiles = [parse_importtime(_python(
        ["-X", "importtime", "-c", IMPORT_STATEMENT], env, deadline).stderr)
        for _ in range(IMPORTTIME_SAMPLES)]
    return {key: statistics.median(p[key] for p in profiles)
            for key in profiles[0]}


def git_sha() -> str:
    # Outside a git checkout, git would search the parent directories.
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        completed = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                                   capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def _median(values, default: float = 0.0) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else default


def stage_rates(jobs: List[dict]) -> Dict[str, float]:
    """``<stage>_samples_per_s``: median over jobs; 0 where a stage is idle."""
    rates = {}
    for stage in STAGES:
        rates[f"{stage}_samples_per_s"] = _median(
            job["stages"][stage][0] / job["stages"][stage][1]
            for job in jobs if stage in job["stages"])
    return rates


def summarise(record: dict, trace: bool, setup: List[float],
              importtime: Dict[str, float]) -> Dict[str, float]:
    """The metrics to print, from the child's record."""
    plain = [job for job in record["jobs"] if job["ok"] and not job["traced"]]
    traced = [job for job in record["jobs"] if job["ok"] and job["traced"]]
    wall = _median(job["wall_s"] for job in plain)
    samples_per_s = _median(job["samples"] / job["wall_s"] for job in plain)
    scale = record["host_scale"]
    if not trace:
        return {"setup_s": _median(setup),
                "scaled_wall_s": wall * scale,
                "scaled_samples_per_s": samples_per_s / scale,
                "peak_rss_mb": float(record["peak_rss_mb"])}
    metrics = {name: _median(job["layers"][name] for job in traced)
               for name in traced[0]["layers"]} if traced else {}
    metrics["wall_s"] = wall
    metrics["samples_per_s"] = samples_per_s
    metrics["calibration_slice_s"] = float(record["slice_s"])
    metrics["import.repro_core_s"] = importtime["repro_core"]
    metrics["import.scipy_ndimage_s"] = importtime["scipy_ndimage"]
    traced_wall = _median(job["wall_s"] for job in traced)
    metrics["trace_overhead_fraction"] = (traced_wall / wall - 1.0
                                          if wall > 0 and traced_wall > 0
                                          else 0.0)
    metrics.update(stage_rates(plain))
    for key in ("test_ssim", "test_mse"):
        metrics[key] = _median(job["quality"][key] for job in plain
                               if key in job["quality"])
    metrics["failed_fraction"] = (record["failed"] / record["attempted"]
                                  if record["attempted"] else 1.0)
    return metrics


def run(args: argparse.Namespace) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}; run from the root of "
              "a full checkout", file=sys.stderr)
        return 2
    deadline = Deadline(DEADLINE_S)
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=str(scratch)))
    try:
        env = clean_env(tmp)
        # The first import compiles the bytecode cache, which an installed
        # package pays once, not on every start: it is reported as
        # ``setup.cold_s`` and kept out of ``setup_s``.
        cold_s = time_import(env, deadline)
        setup: List[float] = []
        importtime: Dict[str, float] = {}
        if args.trace:
            importtime = measure_importtime(env, deadline)
        else:
            setup += [time_import(env, deadline)
                      for _ in range(IMPORT_SAMPLES)]
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--size", args.size, "--tmp", str(tmp)]
        fixture_start = perf_counter()
        if args.workload == "serve_cnn":
            _python([str(BENCH / "child.py"), "--fixture"] + common, env,
                    deadline, capture=False)
        fixture_s = perf_counter() - fixture_start
        out = tmp / "record.json"
        child = [str(BENCH / "child.py"), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--out", str(out),
                 "--limit", str(max(1.0, deadline.remaining() - 60.0))]
        _python(child + common + (["--fault"] if args.fault else []), env,
                deadline, capture=False)
        record = json.loads(out.read_text())
        if not args.trace:
            setup += [time_import(env, deadline)
                      for _ in range(IMPORT_SAMPLES)]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run still uses it
            pass

    trace = bool(args.trace)
    values = summarise(record, trace, setup, importtime)
    table = {metric.name: metric.unit
             for metric in (PER_LAYER if trace else END_TO_END)}
    missing = sorted(set(table) - set(values))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    jobs = record["jobs"]
    ok_jobs = [job for job in jobs if job["ok"]]
    correct = (record["failed"] == 0 and record["attempted"] > 0
               and any(not job["traced"] for job in ok_jobs)
               and (not trace or any(job["traced"] for job in ok_jobs)))
    details = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace, "git_sha": git_sha(),
        "resolved": record["resolved"],
        "blas_threads": {var: env[var] for var in BLAS_THREAD_VARS},
        "setup": {"cold_s": cold_s, "samples_s": setup},
        "importtime_s": importtime,
        "fixture_s": fixture_s, "window_s": record["window_s"],
        "calibration": {key: record[key]
                        for key in ("slice_s", "slices", "host_scale")},
        "jobs": [{key: job.get(key) for key in
                  ("traced", "ok", "wall_s", "samples", "quality")}
                 for job in jobs],
        "stage_rates": stage_rates([job for job in ok_jobs
                                    if not job["traced"]]),
        "golden": next((job["golden"] for job in ok_jobs), {}),
        "problems": record["problems"],
    }
    if trace:
        # Which end-to-end or stage metric each busy layer should move.
        details["moves"] = {metric.name: metric.moves for metric in PER_LAYER
                            if args.workload in metric.on and metric.moves}
    print(json.dumps({"perfbench": details}))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in table.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="QuGeo pipeline benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: smoke-test sizes")
    parser.add_argument("--fault", action="store_true",
                        help="corrupt one output (self-test of the gate)")
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
