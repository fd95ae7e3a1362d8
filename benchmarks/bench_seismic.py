"""Benchmark — scalar vs batched acoustic forward modelling.

Times the QuGeoData "Forward Modeling" hot path: a 5-shot survey over
OpenFWI-sized (70x70) layered velocity maps, propagated by the ``scalar``
engine (one Python time loop per shot), the ``batched`` engine (one shared
time loop advancing every shot — and, on the multi-map rows, several
velocity models — at once) and the batched engine under the ``float32``
dtype policy (half the memory traffic; receiver traces still accumulate in
float64).  Scalar and batched float64 agree to machine precision, so that
speedup is pure wall-clock; the float32 rows trade ~1e-6 relative error for
additional throughput.

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
    BatchedAcousticSimulator2D,
    ForwardModel,
    PMLBoundary,
    SimulationConfig,
    SpongeBoundary,
    SurveyGeometry,
    VelocityModelConfig,
    edge_reflection_energy,
    flat_layer_model,
    ricker_wavelet,
    stable_time_step,
)
from repro.seismic.kernels import KERNELS
from repro.telemetry import capture
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


#: Engine column order: the float32 row reuses the batched engine under the
#: reduced-precision dtype policy (resolved through a propagator factory).
ENGINES = ("scalar", "batched", "batched-f32")


def _propagator_spec(name: str):
    if name == "batched-f32":
        return lambda velocity, config: BatchedAcousticSimulator2D(
            velocity, config, policy="float32")
    return name


def _forward_model(n_steps: int, propagator: str) -> ForwardModel:
    dt = stable_time_step(MAX_VELOCITY, dx=DX, spatial_order=4)
    config = SimulationConfig(dx=DX, dz=DX, dt=dt, n_steps=n_steps,
                              spatial_order=4,
                              boundary=SpongeBoundary(width=12))
    survey = SurveyGeometry(n_sources=N_SOURCES, n_receivers=N_RECEIVERS,
                            nx=GRID[1])
    return ForwardModel(survey=survey, config=config,
                        propagator=_propagator_spec(propagator))


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
                  ) -> Tuple[List[List[object]], Dict[str, float],
                             Dict[str, float]]:
    """Return table rows, batched-vs-scalar and float32-vs-float64 speedups."""
    velocities = _velocities(map_batch)
    rows: List[List[object]] = []
    speedups: Dict[str, float] = {}
    float32_speedups: Dict[str, float] = {}

    scenarios = [
        (f"1 map x {N_SOURCES} shots", 1,
         lambda model: model.model_shots(velocities[0])),
        (f"{map_batch} maps x {N_SOURCES} shots (chunk {chunk})", map_batch,
         lambda model: model.model_shots_batch(velocities, chunk_size=chunk)),
    ]
    for label, n_maps, runner in scenarios:
        runs = {}
        for name in ENGINES:
            model = _forward_model(n_steps, propagator=name)
            runner(model)  # warm-up (allocator, caches)
            runs[name] = (lambda m=model: runner(m))
        timings = _time_interleaved(runs, repeats)
        speedups[label] = (timings["scalar"] / timings["batched"]
                           if timings["batched"] > 0 else float("inf"))
        float32_speedups[label] = (
            timings["batched"] / timings["batched-f32"]
            if timings["batched-f32"] > 0 else float("inf"))
        n_shots = n_maps * N_SOURCES
        for name in ENGINES:
            elapsed = timings[name]
            rows.append([name, label, n_steps, n_shots, elapsed * 1e3,
                         elapsed * 1e3 / n_shots,
                         f"{(timings['scalar'] / elapsed):.2f}x"])
    return rows, speedups, float32_speedups


#: Boundary columns of the kernel grid: the historical sponge default
#: (20-cell pad) against the thin PML pad it can shrink to.  Both run in
#: pad_grid mode so the padded-cell count is the figure of merit for the
#: full-grid work per time step.
BOUNDARIES: Dict[str, object] = {
    "sponge20": lambda: SpongeBoundary(width=20, pad_grid=True),
    "pml12": lambda: PMLBoundary(width=12, pad_grid=True),
}

DTYPES = ("float64", "float32")


def _grid_kernels() -> List[str]:
    return [name for name in KERNELS.names() if KERNELS.available(name)]


def run_kernel_grid(n_steps: int, repeats: int
                    ) -> Tuple[List[List[object]], Dict[str, float],
                               Dict[str, int], Dict[str, float]]:
    """Time every available kernel x boundary x dtype on a 5-shot map.

    Returns table rows, a ``"kernel|boundary|dtype" -> wavefield-steps/s``
    throughput dict (the regression-gate metric), the padded-cell count per
    boundary, and each boundary's edge-reflection energy score.
    """
    velocity = _velocities(1)[0]
    survey = SurveyGeometry(n_sources=N_SOURCES, n_receivers=N_RECEIVERS,
                            nx=GRID[1])
    sources = survey.source_positions()
    receivers = survey.receiver_positions()
    dt = stable_time_step(MAX_VELOCITY, dx=DX, spatial_order=4)
    wavelet = ricker_wavelet(n_steps, dt, 15.0)

    kernels = _grid_kernels()
    simulators: Dict[str, BatchedAcousticSimulator2D] = {}
    runs: Dict[str, object] = {}
    for kernel in kernels:
        for boundary_name, make in BOUNDARIES.items():
            config = SimulationConfig(dx=DX, dz=DX, dt=dt, n_steps=n_steps,
                                      spatial_order=4, boundary=make())
            for dtype in DTYPES:
                key = f"{kernel}|{boundary_name}|{dtype}"
                simulator = BatchedAcousticSimulator2D(
                    velocity, config, policy=dtype, kernel=kernel)
                simulators[key] = simulator
                runs[key] = (lambda s=simulator: s.simulate_shots(
                    sources, wavelet, receivers))
                runs[key]()  # warm-up (allocator, caches, JIT compilation)
    timings = _time_interleaved(runs, repeats)

    rows: List[List[object]] = []
    throughput: Dict[str, float] = {}
    padded_cells: Dict[str, int] = {}
    for key, elapsed in timings.items():
        kernel, boundary_name, dtype = key.split("|")
        cells = simulators[key].padded_cells
        padded_cells[boundary_name] = cells
        throughput[key] = N_SOURCES * n_steps / elapsed if elapsed > 0 else 0.0
        rows.append([kernel, boundary_name, dtype, cells, elapsed * 1e3,
                     elapsed * 1e3 / N_SOURCES, throughput[key]])

    reflection = {name: edge_reflection_energy(make())
                  for name, make in BOUNDARIES.items()}
    return rows, throughput, padded_cells, reflection


def count_kernel_dispatches(n_steps: int = 8) -> Dict[str, int]:
    """One cheap dispatch per available kernel, counted through telemetry.

    CI asserts on these counts to prove the optional compiled kernel really
    ran (rather than silently degrading to the python loop).
    """
    velocity = _velocities(1)[0]
    survey = SurveyGeometry(n_sources=1, n_receivers=8, nx=GRID[1])
    dt = stable_time_step(MAX_VELOCITY, dx=DX, spatial_order=4)
    config = SimulationConfig(dx=DX, dz=DX, dt=dt, n_steps=n_steps,
                              spatial_order=4,
                              boundary=SpongeBoundary(width=12))
    wavelet = ricker_wavelet(n_steps, dt, 15.0)
    with capture("summary") as telemetry:
        for kernel in _grid_kernels():
            BatchedAcousticSimulator2D(
                velocity, config, kernel=kernel).simulate_shots(
                    survey.source_positions(), wavelet,
                    survey.receiver_positions())
        counters = telemetry.snapshot()["counters"]
    return {name.split(".")[-1]: int(count)
            for name, count in counters.items()
            if name.startswith("propagator.kernel.")}


def render_kernel_grid(rows: List[List[object]], n_steps: int) -> str:
    formatted = [row[:4] + [f"{row[4]:.1f}", f"{row[5]:.2f}", f"{row[6]:,.0f}"]
                 for row in sorted(rows)]
    return format_table(
        ["kernel", "boundary", "dtype", "padded cells", "total ms",
         "ms/shot", "wavefield steps/s"],
        formatted,
        title=f"Kernel x boundary x dtype grid: {GRID[0]}x{GRID[1]} model, "
              f"{N_SOURCES} shots, {n_steps} steps")


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

    rows, speedups, float32_speedups = run_benchmark(n_steps, map_batch,
                                                     chunk, args.repeats)
    grid_rows, throughput, padded_cells, reflection = run_kernel_grid(
        n_steps, args.repeats)
    dispatches = count_kernel_dispatches()
    text = (render(rows, n_steps) + "\n\n"
            + render_kernel_grid(grid_rows, n_steps))
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / "bench_seismic.txt"
    path.write_text(text + "\n")
    print(text)
    print(f"[written to {path}]")
    for name, energy in reflection.items():
        print(f"edge-reflection energy {name} "
              f"({padded_cells[name]:,} padded cells): {energy:.3e}")
    for name, count in sorted(dispatches.items()):
        print(f"kernel dispatches {name}: {count}")
    if args.json is not None:
        header = ["propagator", "scenario", "steps", "shots", "total_ms",
                  "ms_per_shot", "vs_scalar"]
        grid_header = ["kernel", "boundary", "dtype", "padded_grid_cells",
                       "total_ms", "ms_per_shot", "wavefield_steps_per_sec"]
        write_json("bench_seismic",
                   {"n_steps": n_steps, "map_batch": map_batch,
                    "rows": [dict(zip(header, row)) for row in rows],
                    "speedups": speedups,
                    "float32_speedups": float32_speedups,
                    "kernel_grid": [dict(zip(grid_header, row))
                                    for row in grid_rows],
                    "throughput": throughput,
                    "padded_grid_cells": padded_cells,
                    "edge_reflection_energy": reflection,
                    "kernel_dispatch": dispatches,
                    "kernels": _grid_kernels()},
                   path=args.json)

    single_map = next(iter(speedups.values()))
    for label, factor in speedups.items():
        print(f"batched vs scalar, {label}: {factor:.2f}x")
    for label, factor in float32_speedups.items():
        print(f"float32 vs float64 (batched), {label}: {factor:.2f}x")
    if args.assert_speedup is not None and single_map < args.assert_speedup:
        print(f"FAIL: expected >= {args.assert_speedup:.2f}x on the "
              f"single-map scenario, got {single_map:.2f}x")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
