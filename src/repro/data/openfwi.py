"""Synthetic OpenFWI-style dataset generation.

OpenFWI's FlatVelA family pairs 70x70 flat-layered velocity maps with seismic
data of shape ``5 x 1000 x 70`` (sources x time steps x receivers) produced
by acoustic forward modelling.  The public files are not redistributable
here, so :class:`SyntheticOpenFWI` regenerates equivalent pairs with the
library's own velocity-model generators and finite-difference propagator --
the same physical process that created the originals (see DESIGN.md,
substitutions table).

All dimensions are configurable so tests and benchmarks can run scaled-down
versions (e.g. 32x32 maps with 128 time steps) while the defaults match the
paper's description of the dataset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.data.dataset import FWIDataset
from repro.seismic.acoustic2d import SimulationConfig, stable_time_step
from repro.seismic.boundary import SpongeBoundary, resolve_boundary_name
from repro.seismic.forward_modeling import ForwardModel
from repro.seismic.survey import SurveyGeometry
from repro.seismic.velocity_models import (
    VelocityModelConfig,
    random_velocity_models,
)
from repro.utils.rng import RngLike, ensure_rng


@dataclass
class OpenFWIConfig:
    """Configuration of the synthetic OpenFWI-style dataset.

    Defaults follow the FlatVelA description in the paper: 70x70 velocity
    maps, 5 sources, 70 receivers, 1000 recorded time steps, a 15 Hz Ricker
    source, velocities between 1500 and 4500 m/s with 2-5 flat layers.

    ``chunk_size`` is how many velocity maps :meth:`SyntheticOpenFWI.build`
    propagates per forward-modelling call, writes per shard and draws from
    one child RNG, so it is part of the data layout and the fingerprint.  It
    does not set the propagator's working set: the C loop splits a call's
    ``chunk_size * n_sources`` wavefields into lane groups that fit a
    core's L2 cache by itself.  A chunk's gathers are held in memory at
    once.

    ``boundary`` names the absorbing boundary kind; only ``None`` and
    ``"sponge"`` (the same Cerjan sponge) are accepted.  ``record_every``
    decimates receiver recording in time (default 1 = every step — the
    historical, fingerprint-preserving behaviour).
    """

    n_samples: int = 500
    velocity_shape: tuple = (70, 70)
    n_sources: int = 5
    n_receivers: int = 70
    n_time_steps: int = 1000
    dx: float = 10.0
    peak_frequency: float = 15.0
    family: str = "flat"
    model_config: Optional[VelocityModelConfig] = None
    boundary_width: int = 12
    spatial_order: int = 4
    chunk_size: int = 4
    boundary: Optional[str] = None
    record_every: int = 1

    def __post_init__(self) -> None:
        if self.n_samples <= 0:
            raise ValueError("n_samples must be positive")
        if self.n_time_steps <= 0:
            raise ValueError("n_time_steps must be positive")
        if self.chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        # Validate eagerly so a typo fails at config time, not mid-build.
        resolve_boundary_name(self.boundary)
        if int(self.record_every) != self.record_every or self.record_every < 1:
            raise ValueError("record_every must be a positive integer")
        self.record_every = int(self.record_every)
        if self.model_config is None:
            self.model_config = VelocityModelConfig(shape=tuple(self.velocity_shape))
        elif tuple(self.model_config.shape) != tuple(self.velocity_shape):
            raise ValueError("model_config.shape must match velocity_shape")


def resolve_root_seed(rng: RngLike = None) -> int:
    """Normalise ``rng`` into the integer root seed of a generation run.

    An integer passes through, ``None`` draws fresh entropy, and an existing
    generator yields a seed drawn from it (so the same generator state
    reproduces the same dataset).
    """
    if isinstance(rng, (int, np.integer)):
        return int(rng)
    if rng is None:
        return int(np.random.SeedSequence().entropy % (2**63))
    return int(ensure_rng(rng).integers(0, 2**63 - 1))


def chunk_layout(total: int, chunk_size: int) -> List[Tuple[int, int, int]]:
    """Partition ``total`` samples into generation chunks.

    Returns ``(chunk_index, start, count)`` triples.  The layout depends only
    on ``chunk_size``, so a dataset built with ``total=N`` shares its first
    chunks bit-for-bit with one built with a larger ``total`` — and a
    partially-built store can resume exactly where it stopped.
    """
    if total <= 0:
        raise ValueError("total must be positive")
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    return [(index, start, min(chunk_size, total - start))
            for index, start in enumerate(range(0, total, chunk_size))]


class SyntheticOpenFWI:
    """Generator of paired (seismic, velocity) FWI samples.

    The generator is addressed by an integer **root seed**: every generation
    chunk (``config.chunk_size`` velocity maps) draws from its own child RNG
    stream derived from ``SeedSequence(seed, spawn_key=(chunk_index,))``.
    Chunks are therefore independent of execution order, which makes the
    parallel worker-pool build (:func:`repro.data.store.build_dataset` with
    ``workers > 1``) bit-identical to the serial one and lets a
    partially-built dataset store resume from its missing chunks.

    ``rng`` may be an integer seed (used directly as the root seed), ``None``
    (a fresh random root seed) or an existing generator (the root seed is
    drawn from it, so the same generator state reproduces the same dataset).
    """

    def __init__(self, config: OpenFWIConfig = None, rng: RngLike = None) -> None:
        self.config = config or OpenFWIConfig()
        self._seed = resolve_root_seed(rng)
        self._forward_model = self._build_forward_model()

    @property
    def seed(self) -> int:
        """Root seed every chunk stream is derived from (cache-fingerprint key)."""
        return self._seed

    def _build_forward_model(self) -> ForwardModel:
        config = self.config
        nz, nx = config.velocity_shape
        boundary = SpongeBoundary(
            width=min(config.boundary_width, max(1, min(nz, nx) // 3 - 1)))
        # Pick a CFL-stable dt for the fastest velocity the generator can emit.
        dt = stable_time_step(config.model_config.max_velocity,
                              dx=config.dx, dz=config.dx,
                              spatial_order=config.spatial_order)
        sim = SimulationConfig(dx=config.dx, dz=config.dx, dt=dt,
                               n_steps=config.n_time_steps,
                               spatial_order=config.spatial_order,
                               boundary=boundary,
                               record_every=config.record_every)
        survey = SurveyGeometry(n_sources=config.n_sources,
                                n_receivers=config.n_receivers, nx=nx)
        return ForwardModel(survey=survey, config=sim,
                            peak_frequency=config.peak_frequency)

    @property
    def forward_model(self) -> ForwardModel:
        """The forward-modelling engine used to synthesise seismic data."""
        return self._forward_model

    def _sample_metadata(self) -> dict:
        sim = self._forward_model.config
        return {
            "family": self.config.family,
            "peak_frequency": self.config.peak_frequency,
            "n_time_steps": self.config.n_time_steps,
            "dx": self.config.dx,
            "dt": sim.dt,
            "boundary": resolve_boundary_name(self.config.boundary),
            "record_every": sim.record_every,
            "effective_dt": sim.effective_dt,
        }

    def chunk_rng(self, chunk_index: int) -> np.random.Generator:
        """The dedicated RNG stream of generation chunk ``chunk_index``."""
        if chunk_index < 0:
            raise ValueError("chunk_index must be non-negative")
        sequence = np.random.SeedSequence(entropy=self._seed,
                                          spawn_key=(chunk_index,))
        return np.random.default_rng(sequence)

    def build_chunk(self, chunk_index: int,
                    count: int) -> Tuple[np.ndarray, np.ndarray]:
        """Generate one chunk: ``(velocities, seismic)`` stacks.

        The chunk draws its velocity maps from :meth:`chunk_rng`, so the
        result depends only on ``(config, seed, chunk_index, count)`` — not
        on which process builds it or in which order.
        """
        velocities = random_velocity_models(count, self.config.model_config,
                                            family=self.config.family,
                                            rng=self.chunk_rng(chunk_index))
        seismic = self._forward_model.model_shots_batch(velocities)
        return velocities, seismic

    def dataset_name(self) -> str:
        return f"synthetic-openfwi-{self.config.family}"

    def build(self, count: Optional[int] = None, store=None,
              workers: Optional[int] = None) -> FWIDataset:
        """Generate a full dataset of ``count`` paired samples.

        Velocity maps are forward-modelled ``config.chunk_size`` at a time
        through :meth:`ForwardModel.model_shots_batch`, so one shared time
        loop advances every shot of every map in the chunk.  The chunk loop
        is :func:`repro.data.store.build_dataset`.

        Parameters
        ----------
        store:
            ``None`` builds in memory.  A cache directory path or
            :class:`repro.data.store.DatasetStore` writes ``.npz`` shards
            as chunks complete; a partial previous build under the same
            fingerprint is resumed (only missing chunks are generated).
        workers:
            ``None``/``1`` builds serially in-process; larger values fan the
            chunks across a ``multiprocessing`` pool.  Because every chunk
            owns a seeded RNG stream, the parallel result is bit-identical
            to the serial one.
        """
        from repro.data.store import build_dataset
        return build_dataset(self, count=count, store=store, workers=workers)


def build_flatvel_dataset(n_samples: int = 64,
                          velocity_shape: tuple = (32, 32),
                          n_time_steps: int = 300,
                          n_sources: int = 5,
                          n_receivers: Optional[int] = None,
                          peak_frequency: float = 15.0,
                          domain_width: float = 700.0,
                          family: str = "flat",
                          rng: RngLike = None,
                          cache_dir=None,
                          workers: Optional[int] = None) -> FWIDataset:
    """Build a reduced FlatVelA-style dataset sized for tests and examples.

    The physical domain is kept at OpenFWI's 700 m x 700 m regardless of the
    grid resolution (``dx = domain_width / width``), so travel times — and
    therefore the information content of the shot gathers — match the
    original dataset.  The defaults generate data quickly while preserving
    the structure the QuGeo pipeline cares about (multi-source shot gathers
    over flat layered models).  Use :class:`SyntheticOpenFWI` directly for
    paper-scale data.

    ``cache_dir`` persists the generated shards under a content fingerprint
    of the configuration and seed (see :mod:`repro.data.store`) so repeated
    builds are served from disk; ``workers`` fans generation across a
    process pool with bit-identical output.
    """
    config = OpenFWIConfig(
        n_samples=n_samples,
        velocity_shape=velocity_shape,
        n_sources=n_sources,
        n_receivers=n_receivers or velocity_shape[1],
        n_time_steps=n_time_steps,
        dx=domain_width / velocity_shape[1],
        peak_frequency=peak_frequency,
        family=family,
    )
    return SyntheticOpenFWI(config, rng=rng).build(
        store=cache_dir, workers=workers)
