"""Benchmark — scalar vs batched acoustic forward modelling.

Times the QuGeoData "Forward Modeling" hot path: a 5-shot survey over
OpenFWI-sized (70x70) layered velocity maps, propagated by the ``scalar``
engine (one numpy time loop per shot) and the ``batched`` engine (one call
of the compiled C loop over every shot — and, on the multi-map rows,
several velocity models).  Both compute in float64 and give bit-identical
gathers, so the speedup is pure wall-clock.  A second table times the
batched propagator on the model edge-padded by the 20-cell sponge (90x110
cells, so the sponge damps pad cells, not model cells); its
wavefield-steps/s, keyed ``sponge20|float64``, are what
``check_seismic_regression.py`` gates, together with those of a third
table: the 32x32, 256-step calls that Q-D-FW scaling makes on fit_paper,
4 maps x 4 shots when it scales a dataset (``qdfw32|float64``) and 1 map
x 4 shots on the predict path (``qdfw32x1|float64``).  A fourth table
times Q-D-FW scaling of fit_paper-shaped samples sample by sample
(``ForwardModelingScaler.scale_seismic``) and as one batched pass
(``ForwardModelingScaler.dataset_seismic``); the run fails unless both give
``array_equal`` cubes.

Run directly (CI uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_seismic.py --quick

The full sweep uses the paper's 1000 time steps and a larger map batch.
Results are printed and written to ``benchmarks/results/bench_seismic.txt``.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np
from common import add_json_argument, write_json

from repro.core.config import QuGeoDataConfig
from repro.core.data_scaling import ForwardModelingScaler
from repro.data.openfwi import build_flatvel_dataset
from repro.seismic import (
    AcousticSimulator2D,
    BatchedAcousticSimulator2D,
    SimulationConfig,
    SpongeBoundary,
    SurveyGeometry,
    VelocityModelConfig,
    flat_layer_model,
    ricker_wavelet,
    stable_time_step,
)
from repro.utils.tables import format_table

RESULTS_DIR = Path(__file__).parent / "results"

GRID = (70, 70)
N_SOURCES = 5
N_RECEIVERS = 70
DX = 10.0
MAX_VELOCITY = 4500.0


def _velocities(n_maps: int) -> np.ndarray:
    config = VelocityModelConfig(shape=GRID, min_velocity=1500.0,
                                 max_velocity=MAX_VELOCITY)
    return np.stack([flat_layer_model(config, rng=seed)
                     for seed in range(n_maps)])


#: Engine columns, each a ``(velocity, config) -> simulator`` factory: the
#: scalar reference and the batched propagator.
ENGINES = {
    "scalar": AcousticSimulator2D,
    "batched": BatchedAcousticSimulator2D,
}


def _survey_runner(n_steps: int, engine: str, velocities: np.ndarray,
                   chunk: int):
    """A no-argument callable modelling every shot over a map stack.

    The scalar reference takes one map per simulator; the batched engines
    advance ``chunk`` maps per shared time loop.
    """
    dt = stable_time_step(MAX_VELOCITY, dx=DX, spatial_order=4)
    config = SimulationConfig(dx=DX, dz=DX, dt=dt, n_steps=n_steps,
                              spatial_order=4,
                              boundary=SpongeBoundary(width=12))
    survey = SurveyGeometry(n_sources=N_SOURCES, n_receivers=N_RECEIVERS,
                            nx=GRID[1])
    sources = survey.source_positions()
    receivers = survey.receiver_positions()
    wavelet = ricker_wavelet(n_steps, dt, 15.0)
    factory = ENGINES[engine]
    if engine == "scalar":
        batches = list(velocities)
    else:
        batches = [velocities[start:start + chunk]
                   for start in range(0, len(velocities), chunk)]

    def run():
        return [factory(batch, config).simulate_shots(sources, wavelet,
                                                      receivers)
                for batch in batches]
    return run


def _time_interleaved(fns: Dict[str, object], repeats: int) -> Dict[str, float]:
    """Best-of-``repeats`` wall time per engine, alternating engines.

    Interleaving means a slow phase of the host machine (shared CPU,
    frequency scaling) hits every engine instead of skewing the ratio.
    """
    best = {name: float("inf") for name in fns}
    for _ in range(repeats):
        for name, fn in fns.items():
            start = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - start)
    return best


def run_benchmark(n_steps: int, map_batch: int, chunk: int, repeats: int
                  ) -> Tuple[List[List[object]], Dict[str, float]]:
    """Return table rows and batched-vs-scalar speedups."""
    velocities = _velocities(map_batch)
    rows: List[List[object]] = []
    speedups: Dict[str, float] = {}

    scenarios = [
        (f"1 map x {N_SOURCES} shots", velocities[:1]),
        (f"{map_batch} maps x {N_SOURCES} shots (chunk {chunk})", velocities),
    ]
    for label, maps in scenarios:
        n_maps = len(maps)
        runs = {}
        for name in ENGINES:
            runs[name] = _survey_runner(n_steps, name, maps, chunk)
            runs[name]()  # warm-up (allocator, caches)
        timings = _time_interleaved(runs, repeats)
        speedups[label] = (timings["scalar"] / timings["batched"]
                           if timings["batched"] > 0 else float("inf"))
        n_shots = n_maps * N_SOURCES
        for name in ENGINES:
            elapsed = timings[name]
            rows.append([name, label, n_steps, n_shots, elapsed * 1e3,
                         elapsed * 1e3 / n_shots,
                         f"{(timings['scalar'] / elapsed):.2f}x"])
    return rows, speedups


#: The timed boundary: the historical 20-cell sponge default, laid in pads
#: outside the model so that it damps pad cells instead of model cells.
#: Its name and the one precision key the gated throughput row.
SPONGE_NAME, SPONGE = "sponge20", SpongeBoundary(width=20)
DTYPE = "float64"


def run_boundary_grid(n_steps: int, repeats: int
                      ) -> Tuple[List[List[object]], Dict[str, float],
                                 Dict[str, int]]:
    """Time the padded sponge run on a 5-shot map.

    The 70x70 model is edge-padded by the sponge width below and on both
    sides (the top is a free surface), and the sources and receivers move
    with it.  Returns the table row, a ``"boundary|dtype" ->
    wavefield-steps/s`` throughput dict (the regression-gate metric) and the
    propagated cell count per boundary.
    """
    width = SPONGE.width
    model = np.pad(_velocities(1)[0], ((0, width), (width, width)),
                   mode="edge")
    survey = SurveyGeometry(n_sources=N_SOURCES, n_receivers=N_RECEIVERS,
                            nx=GRID[1])
    shift = np.array([0, width])
    sources = np.asarray(survey.source_positions()) + shift
    receivers = np.asarray(survey.receiver_positions()) + shift
    dt = stable_time_step(MAX_VELOCITY, dx=DX, spatial_order=4)
    wavelet = ricker_wavelet(n_steps, dt, 15.0)
    config = SimulationConfig(dx=DX, dz=DX, dt=dt, n_steps=n_steps,
                              spatial_order=4, boundary=SPONGE)

    simulator = BatchedAcousticSimulator2D(model, config)

    def run():
        return simulator.simulate_shots(sources, wavelet, receivers)
    run()  # warm-up (allocator, caches)
    elapsed = _time_interleaved({DTYPE: run}, repeats)[DTYPE]

    key = f"{SPONGE_NAME}|{DTYPE}"
    throughput = {key: N_SOURCES * n_steps / elapsed if elapsed > 0 else 0.0}
    rows = [[SPONGE_NAME, DTYPE, model.size, elapsed * 1e3,
             elapsed * 1e3 / N_SOURCES, throughput[key]]]
    return rows, throughput, {SPONGE_NAME: model.size}


def render_boundary_grid(rows: List[List[object]], n_steps: int) -> str:
    formatted = [row[:3] + [f"{row[3]:.1f}", f"{row[4]:.2f}", f"{row[5]:,.0f}"]
                 for row in sorted(rows)]
    return format_table(
        ["boundary", "dtype", "padded cells", "total ms", "ms/shot",
         "wavefield steps/s"],
        formatted,
        title=f"Sponge throughput: {GRID[0]}x{GRID[1]} model in "
              f"{SPONGE.width}-cell pads, {N_SOURCES} shots, {n_steps} steps")


#: The propagator calls fit_paper makes: Q-D-FW's re-simulation of 4 shots
#: per map on a 32x32 grid over a 700 m domain, with
#: ``forward_model_shot_gather``'s 8-cell sponge and each map at its own
#: CFL step, 256 steps.  Scaling a dataset runs 4 maps per call
#: (``qdfw32``), the predict path's ``ForwardModelingScaler.scale_seismic``
#: one (``qdfw32x1``).  Their wavefield-steps/s, keyed ``<name>|float64``,
#: are gated throughput cells.
QDFW_GRID = (32, 32)
QDFW_CALLS = {"qdfw32": 4, "qdfw32x1": 1}
QDFW_SHOTS, QDFW_STEPS = 4, 256


def run_qdfw_grid(repeats: int) -> Tuple[List[List[object]], Dict[str, float]]:
    """Time the fit_paper-shaped propagator calls.

    Returns the table rows and a ``"<name>|dtype" -> wavefield-steps/s``
    throughput dict (regression-gate metrics).
    """
    config = VelocityModelConfig(shape=QDFW_GRID, min_velocity=1500.0,
                                 max_velocity=MAX_VELOCITY)
    survey = SurveyGeometry(n_sources=QDFW_SHOTS, n_receivers=8,
                            nx=QDFW_GRID[1])
    dx = 700.0 / QDFW_GRID[1]
    rows, throughput = [], {}
    for name, n_maps in QDFW_CALLS.items():
        velocities = np.stack([flat_layer_model(config, rng=seed)
                               for seed in range(n_maps)])
        steps = np.array([stable_time_step(float(v.max()), dx=dx)
                          for v in velocities])
        simulation = SimulationConfig(dx=dx, dz=dx, dt=float(steps[0]),
                                      n_steps=QDFW_STEPS, spatial_order=4,
                                      boundary=SpongeBoundary(width=8))
        wavelets = np.stack([ricker_wavelet(QDFW_STEPS, step, 15.0)
                             for step in steps])
        wavelets = np.broadcast_to(wavelets[:, None],
                                   (n_maps, QDFW_SHOTS, QDFW_STEPS))
        simulator = BatchedAcousticSimulator2D(velocities, simulation,
                                               dt=steps)

        def run():
            return simulator.simulate_shots(survey.source_positions(),
                                            wavelets,
                                            survey.receiver_positions())
        run()  # warm-up (allocator, caches)
        elapsed = _time_interleaved({DTYPE: run}, repeats)[DTYPE]

        key = f"{name}|{DTYPE}"
        wavefields = n_maps * QDFW_SHOTS
        throughput[key] = (wavefields * QDFW_STEPS / elapsed
                           if elapsed > 0 else 0.0)
        rows.append([name, DTYPE, n_maps, velocities[0].size, elapsed * 1e3,
                     elapsed * 1e3 / wavefields, throughput[key]])
    return rows, throughput


def render_qdfw_grid(rows: List[List[object]]) -> str:
    formatted = [row[:4] + [f"{row[4]:.1f}", f"{row[5]:.3f}", f"{row[6]:,.0f}"]
                 for row in rows]
    return format_table(
        ["call", "dtype", "maps", "cells", "total ms", "ms/wavefield",
         "wavefield steps/s"],
        formatted,
        title=f"fit_paper-shaped calls: {QDFW_SHOTS} shots per map on "
              f"{QDFW_GRID[0]}x{QDFW_GRID[1]}, {QDFW_STEPS} steps")


#: Samples of the Q-D-FW table, shaped like the fit_paper workload's:
#: 32x32 maps over a 700 m domain, 4 shots, 300 time steps.
QDFW_SAMPLES = 8


def run_qdfw(repeats: int) -> Tuple[Dict[str, float], bool]:
    """Best-of-``repeats`` Q-D-FW scaling time per path, and whether the
    per-sample and batched cubes are ``array_equal``."""
    samples = list(build_flatvel_dataset(
        n_samples=QDFW_SAMPLES, velocity_shape=(32, 32), n_time_steps=300,
        n_sources=4, rng=0))
    scaler = ForwardModelingScaler(QuGeoDataConfig())
    runs = {
        "per-sample": lambda: np.stack([scaler.scale_seismic(sample)
                                        for sample in samples]),
        "batched": lambda: scaler.dataset_seismic(samples),
    }
    # The warm-up outputs are the ones compared.
    outputs = {name: run() for name, run in runs.items()}
    equal = bool(np.array_equal(outputs["per-sample"], outputs["batched"]))
    return _time_interleaved(runs, repeats), equal


def render_qdfw(timings: Dict[str, float], equal: bool) -> str:
    reference = timings["per-sample"]
    rows = [[name, f"{elapsed * 1e3:.1f}",
             f"{elapsed * 1e3 / QDFW_SAMPLES:.2f}",
             f"{reference / elapsed:.2f}x"]
            for name, elapsed in timings.items()]
    return format_table(
        ["path", "total ms", "ms/sample", "vs per-sample"], rows,
        title=f"Q-D-FW scaling: {QDFW_SAMPLES} fit_paper-shaped samples, "
              f"cubes array_equal: {equal}")


def render(rows: List[List[object]], n_steps: int) -> str:
    return format_table(
        ["propagator", "scenario", "steps", "shots", "total ms", "ms/shot",
         "vs scalar"],
        rows,
        title=f"Acoustic propagator comparison: {GRID[0]}x{GRID[1]} grid, "
              f"{n_steps} time steps")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized run (fewer time steps, smaller map batch)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="interleaved timing repeats per cell (best is "
                             "reported)")
    parser.add_argument("--assert-speedup", type=float, default=None,
                        metavar="FACTOR",
                        help="exit non-zero unless the batched engine beats "
                             "the scalar engine by FACTOR on the 5-shot "
                             "single-map scenario")
    add_json_argument(parser)
    args = parser.parse_args()

    if args.quick:
        n_steps, map_batch, chunk = 200, 4, 4
    else:
        n_steps, map_batch, chunk = 1000, 16, 4

    rows, speedups = run_benchmark(n_steps, map_batch, chunk, args.repeats)
    grid_rows, throughput, grid_cells = run_boundary_grid(n_steps,
                                                            args.repeats)
    qdfw_grid_rows, qdfw_throughput = run_qdfw_grid(args.repeats)
    throughput.update(qdfw_throughput)
    qdfw_timings, qdfw_equal = run_qdfw(args.repeats)
    text = (render(rows, n_steps) + "\n\n"
            + render_boundary_grid(grid_rows, n_steps) + "\n\n"
            + render_qdfw_grid(qdfw_grid_rows) + "\n\n"
            + render_qdfw(qdfw_timings, qdfw_equal))
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / "bench_seismic.txt"
    path.write_text(text + "\n")
    print(text)
    print(f"[written to {path}]")
    if args.json is not None:
        header = ["propagator", "scenario", "steps", "shots", "total_ms",
                  "ms_per_shot", "vs_scalar"]
        grid_header = ["boundary", "dtype", "padded_grid_cells",
                       "total_ms", "ms_per_shot", "wavefield_steps_per_sec"]
        qdfw_grid_header = ["call", "dtype", "maps", "grid_cells",
                            "total_ms", "ms_per_wavefield",
                            "wavefield_steps_per_sec"]
        write_json("bench_seismic",
                   {"n_steps": n_steps, "map_batch": map_batch,
                    "rows": [dict(zip(header, row)) for row in rows],
                    "speedups": speedups,
                    "boundary_grid": [dict(zip(grid_header, row))
                                      for row in grid_rows],
                    "throughput": throughput,
                    "padded_grid_cells": grid_cells,
                    "qdfw_grid": [dict(zip(qdfw_grid_header, row))
                                  for row in qdfw_grid_rows],
                    "qdfw": {"samples": QDFW_SAMPLES,
                             "per_sample_ms": qdfw_timings["per-sample"] * 1e3,
                             "batched_ms": qdfw_timings["batched"] * 1e3,
                             "array_equal": qdfw_equal}},
                   path=args.json)

    if not qdfw_equal:
        print("FAIL: batched Q-D-FW cubes differ from the per-sample path")
        return 1
    single_map = next(iter(speedups.values()))
    for label, factor in speedups.items():
        print(f"batched vs scalar, {label}: {factor:.2f}x")
    if args.assert_speedup is not None and single_map < args.assert_speedup:
        print(f"FAIL: expected >= {args.assert_speedup:.2f}x on the "
              f"single-map scenario, got {single_map:.2f}x")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
