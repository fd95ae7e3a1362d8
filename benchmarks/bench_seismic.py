"""Benchmark — scalar vs batched acoustic forward modelling.

Times the QuGeoData "Forward Modeling" hot path: a 5-shot survey over
OpenFWI-sized (70x70) layered velocity maps, propagated by the ``scalar``
engine (one Python time loop per shot) and the ``batched`` engine (one
shared time loop advancing every shot — and, on the multi-map rows, several
velocity models — at once).  Both compute in float64 and agree to machine
precision, so the speedup is pure wall-clock.  A second table times the
batched propagator on the model edge-padded by the 20-cell sponge (90x110
cells, so the sponge damps pad cells, not model cells); its
wavefield-steps/s, keyed ``sponge20|float64``, are what
``check_seismic_regression.py`` gates.

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
from common import (add_cache_dir_argument, add_json_argument,
                    apply_cache_dir, write_json)

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
    add_cache_dir_argument(parser)
    args = parser.parse_args()
    apply_cache_dir(args.cache_dir)

    if args.quick:
        n_steps, map_batch, chunk = 200, 4, 4
    else:
        n_steps, map_batch, chunk = 1000, 16, 4

    rows, speedups = run_benchmark(n_steps, map_batch, chunk, args.repeats)
    grid_rows, throughput, grid_cells = run_boundary_grid(n_steps,
                                                            args.repeats)
    text = (render(rows, n_steps) + "\n\n"
            + render_boundary_grid(grid_rows, n_steps))
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
        write_json("bench_seismic",
                   {"n_steps": n_steps, "map_batch": map_batch,
                    "rows": [dict(zip(header, row)) for row in rows],
                    "speedups": speedups,
                    "boundary_grid": [dict(zip(grid_header, row))
                                      for row in grid_rows],
                    "throughput": throughput,
                    "padded_grid_cells": grid_cells},
                   path=args.json)

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
