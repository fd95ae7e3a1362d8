"""QuGeoData: physics-guided data scaling (Section 3.1 of the paper).

Quantum devices with <16 qubits can only amplitude-encode a few hundred
values, so OpenFWI's ``5 x 1000 x 70`` seismic cubes and ``70 x 70`` velocity
maps must be shrunk.  Three scalers are provided:

* :class:`DSampleScaler` — the baseline: nearest-neighbour resampling of both
  the waveform cube and the velocity map ("D-Sample").
* :class:`ForwardModelingScaler` — the physics-guided method ("Q-D-FW"):
  downsample the velocity map, then *re-simulate* the seismic data on the
  coarse model with a source wavelet whose dominant frequency is lowered so
  the coarser sampling does not alias the wavefield (the paper lowers 15 Hz
  to 8 Hz).  Requires the velocity map, so it is a training-time tool.
* :class:`CNNScaler` — the learning-based method ("Q-D-CNN"): a LeNet-like
  CNN trained to map raw seismic data directly to the physics-guided scaled
  representation, usable at inference time when no velocity map exists.

Every scaler produces :class:`ScaledSample` objects whose seismic payload has
the configured scaled shape and whose velocity map is normalised to [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.core.classical_models import CompressionCNN
from repro.core.config import QuGeoDataConfig
from repro.data.dataset import FWIDataset, FWISample
from repro.data.normalization import VelocityNormalizer
from repro.data.resample import bilinear_resample, nearest_neighbor_resample
from repro.nn import Adam, CosineAnnealingLR, MSELoss, Tensor
from repro.seismic.forward_modeling import forward_model_shot_gather
from repro.seismic.wavelets import dominant_frequency
from repro.utils.rng import RngLike, ensure_rng


@dataclass
class ScaledSample(FWISample):
    """A training example after QuGeoData scaling.

    ``seismic`` has the configured scaled shape (e.g. ``4 x 8 x 8``) and
    ``velocity`` is the scaled map normalised to [0, 1].  ``metadata`` keeps
    the scaling method and provenance of the original sample.
    """

    @property
    def method(self) -> str:
        """Name of the scaling method that produced this sample."""
        return str(self.metadata.get("scaling_method", "unknown"))

    def seismic_vector(self) -> np.ndarray:
        """The scaled seismic data flattened for the quantum encoder."""
        return self.seismic.reshape(-1)


class BaseScaler:
    """Shared plumbing of the three QuGeoData scalers."""

    #: Short name used in result tables (matches the paper's labels).
    name = "base"

    def __init__(self, config: QuGeoDataConfig = None) -> None:
        self.config = config or QuGeoDataConfig()
        self.normalizer = VelocityNormalizer(*self.config.velocity_range)

    # -- velocity ------------------------------------------------------- #
    def scale_velocity(self, velocity: np.ndarray,
                       method: str = "nearest") -> np.ndarray:
        """Downsample a physical velocity map and normalise it to [0, 1]."""
        velocity = np.asarray(velocity, dtype=np.float64)
        target = self.config.scaled_velocity_shape
        if velocity.shape != tuple(target):
            if method == "nearest":
                velocity = nearest_neighbor_resample(velocity, target)
            else:
                velocity = bilinear_resample(velocity, target)
        return np.clip(self.normalizer.normalize(velocity), 0.0, 1.0)

    # -- seismic -------------------------------------------------------- #
    def scale_seismic(self, sample: FWISample) -> np.ndarray:
        raise NotImplementedError

    def scale_seismic_batch(self, samples: Sequence[FWISample]) -> np.ndarray:
        """Scale the seismic data of ``samples`` only, as one
        ``(n, *scaled_seismic_shape)`` stack; no velocity map is scaled."""
        return np.stack([self.scale_seismic(sample) for sample in samples])

    def dataset_seismic(self, samples: Sequence[FWISample]) -> np.ndarray:
        """The scaled seismic stack :meth:`scale_dataset` pairs with the
        samples: :meth:`scale_seismic_batch`, unless a scaler has a faster
        whole-dataset path."""
        return self.scale_seismic_batch(samples)

    def scale_sample(self, sample: FWISample,
                     seismic: Optional[np.ndarray] = None) -> ScaledSample:
        """Scale one full-resolution sample.

        ``seismic`` is the sample's already-scaled seismic data, when a
        batched pass has computed it; by default :meth:`scale_seismic` runs.
        """
        if seismic is None:
            seismic = self.scale_seismic(sample)
        velocity = self.scale_velocity(sample.velocity, method=self.velocity_method)
        metadata = dict(sample.metadata)
        metadata["scaling_method"] = self.name
        return ScaledSample(seismic=seismic, velocity=velocity, metadata=metadata)

    def scale_dataset(self, dataset: Iterable[FWISample]) -> FWIDataset:
        """Scale every sample of ``dataset``, the seismic data of all of
        them in one :meth:`dataset_seismic` call."""
        samples = list(dataset)
        seismic = self.dataset_seismic(samples) if samples else []
        scaled = [self.scale_sample(sample, cube)
                  for sample, cube in zip(samples, seismic)]
        return FWIDataset(scaled, name=f"scaled-{self.name}")

    # -- serialisation --------------------------------------------------- #
    def state_dict(self) -> dict:
        """Everything beyond the config needed to rebuild this scaler."""
        return {}

    #: Velocity-map resampling method used by :meth:`scale_sample`.
    velocity_method = "nearest"


class DSampleScaler(BaseScaler):
    """Naive nearest-neighbour downsampling of waveforms and velocity maps."""

    name = "D-Sample"
    velocity_method = "nearest"

    def scale_seismic(self, sample: FWISample) -> np.ndarray:
        seismic = np.asarray(sample.seismic, dtype=np.float64)
        if seismic.ndim != 3:
            raise ValueError("expected seismic data of shape (sources, time, receivers)")
        return nearest_neighbor_resample(seismic, self.config.scaled_seismic_shape)


#: Coarse maps per batched propagator call of
#: :meth:`ForwardModelingScaler.dataset_seismic`.  The propagator runs a
#: call's wavefields (maps x shots) together in lane groups that fit a
#: core's L2 cache, so more maps per call cost less per map; at 32x32 one
#: group holds 25 wavefields, and 4 maps of 4 shots fill 16 of them.  Each
#: chunk's 256-step gathers are decimated before the next chunk runs, so
#: they are never all held at once.
RESIMULATION_CHUNK = 4


class ForwardModelingScaler(BaseScaler):
    """Physics-guided scaling: re-simulate seismic data on the coarse model.

    Parameters
    ----------
    config:
        Scaling targets.
    simulation_shape:
        Grid used for the coarse re-simulation.  The velocity map is
        resampled to this shape (kept larger than the final velocity target
        so the wave physics stays resolvable), the receivers of the scaled
        survey are spread across its surface, and the recorded traces are
        decimated to the target time axis.
    simulation_steps:
        Number of finite-difference time steps of the re-simulation before
        decimation to ``config.scaled_seismic_shape[1]`` samples.
    """

    name = "Q-D-FW"
    velocity_method = "bilinear"

    def __init__(self, config: QuGeoDataConfig = None,
                 simulation_shape: Tuple[int, int] = (32, 32),
                 simulation_steps: int = 256) -> None:
        super().__init__(config)
        if simulation_steps < self.config.scaled_seismic_shape[1]:
            raise ValueError("simulation_steps must cover the scaled time axis")
        self.simulation_shape = tuple(int(s) for s in simulation_shape)
        self.simulation_steps = int(simulation_steps)

    def scaled_frequency(self, original_steps: int) -> float:
        """Source frequency used for the coarse re-simulation."""
        if self.config.scaled_peak_frequency is not None:
            return float(self.config.scaled_peak_frequency)
        return dominant_frequency(self.config.original_peak_frequency,
                                  original_steps,
                                  self.config.scaled_seismic_shape[1])

    def _resimulation_inputs(self, sample: FWISample
                      ) -> Tuple[np.ndarray, float, float]:
        """``(coarse map, grid spacing, source frequency)`` of one sample."""
        velocity = np.asarray(sample.velocity, dtype=np.float64)
        coarse = bilinear_resample(velocity, self.simulation_shape)
        # Physical extent of the model is preserved, so the grid spacing grows
        # in proportion to the downsampling factor.  The sample's own grid
        # spacing (recorded by the dataset builder) takes precedence over the
        # config default so reduced-resolution datasets keep a 700 m domain.
        sample_dx = float(sample.metadata.get("dx", self.config.dx))
        original_width = velocity.shape[1] * sample_dx
        dx = original_width / self.simulation_shape[1]
        original_steps = (sample.seismic.shape[1]
                          if np.ndim(sample.seismic) == 3
                          else self.config.scaled_seismic_shape[1])
        return coarse, dx, self.scaled_frequency(original_steps)

    def _resimulate(self, coarse: np.ndarray, dx: float,
                    frequency: float) -> np.ndarray:
        """Re-simulate one coarse map or a stack of them, then decimate the
        time axis to the target number of samples."""
        n_sources, n_time, n_receivers = self.config.scaled_seismic_shape
        gather = forward_model_shot_gather(
            coarse,
            n_sources=n_sources,
            n_receivers=n_receivers,
            n_steps=self.simulation_steps,
            dx=dx,
            peak_frequency=frequency,
        )
        time_indices = np.linspace(0, self.simulation_steps - 1, n_time).astype(int)
        return gather[..., time_indices, :]

    def scale_seismic(self, sample: FWISample) -> np.ndarray:
        """Re-simulate one sample on its own (the serving path)."""
        return self._resimulate(*self._resimulation_inputs(sample))

    def dataset_seismic(self, samples: Sequence[FWISample]) -> np.ndarray:
        """Re-simulate every sample in batched chunks.

        Samples that share a grid spacing and a source frequency run
        :data:`RESIMULATION_CHUNK` maps per propagator call, each map at its
        own CFL time step, and each chunk's gathers are decimated before
        the next chunk runs.  Every scaled cube equals
        :meth:`scale_seismic`'s bit for bit.
        """
        out = np.empty((len(samples),) + tuple(self.config.scaled_seismic_shape))
        groups = {}
        coarse_maps = []
        for index, sample in enumerate(samples):
            coarse, dx, frequency = self._resimulation_inputs(sample)
            coarse_maps.append(coarse)
            groups.setdefault((dx, frequency), []).append(index)
        for (dx, frequency), members in groups.items():
            for start in range(0, len(members), RESIMULATION_CHUNK):
                chunk = members[start:start + RESIMULATION_CHUNK]
                out[chunk] = self._resimulate(
                    np.stack([coarse_maps[i] for i in chunk]), dx, frequency)
        return out

    def state_dict(self) -> dict:
        return {"simulation_shape": self.simulation_shape,
                "simulation_steps": self.simulation_steps}


class CNNScaler(BaseScaler):
    """Learning-based scaling: a CNN maps raw seismic data to ``phyD``.

    Build it with :meth:`train`, which fits the compressor on
    ``(raw seismic, physics-guided scaled seismic)`` pairs generated by a
    reference :class:`ForwardModelingScaler` — exactly the dataset
    construction described in Section 3.1.2.
    """

    name = "Q-D-CNN"
    velocity_method = "bilinear"

    def __init__(self, compressor: CompressionCNN,
                 config: QuGeoDataConfig = None) -> None:
        super().__init__(config)
        self.compressor = compressor

    @classmethod
    def train(cls, dataset: Iterable[FWISample],
              config: QuGeoDataConfig = None,
              reference_scaler: Optional[ForwardModelingScaler] = None,
              epochs: int = 60,
              learning_rate: float = 0.01,
              batch_size: int = 16,
              hidden_channels: Tuple[int, int] = (4, 8),
              rng: RngLike = None,
              verbose: bool = False) -> "CNNScaler":
        """Fit the Q-D-CNN compressor and return the ready-to-use scaler.

        Parameters
        ----------
        dataset:
            Full-resolution samples used to build the ``<D, phyD>`` pairs.
            The paper uses 500 samples disjoint from the FWI train/test data.
        reference_scaler:
            The physics-guided scaler that produces the regression targets;
            defaults to a :class:`ForwardModelingScaler` with ``config``.
        """
        config = config or QuGeoDataConfig()
        reference = reference_scaler or ForwardModelingScaler(config)
        samples = list(dataset)
        if not samples:
            raise ValueError("cannot train the compressor on an empty dataset")
        rng = ensure_rng(rng)

        raw = np.stack([np.asarray(s.seismic, dtype=np.float64) for s in samples])
        targets = reference.dataset_seismic(samples).reshape(len(samples), -1)

        compressor = CompressionCNN(input_shape=raw.shape[1:],
                                    output_size=config.scaled_seismic_size,
                                    hidden_channels=hidden_channels, rng=rng)
        optimizer = Adam(compressor.parameters(), lr=learning_rate)
        scheduler = CosineAnnealingLR(optimizer, t_max=epochs)
        loss_fn = MSELoss()

        n_samples = raw.shape[0]
        for epoch in range(epochs):
            order = rng.permutation(n_samples)
            epoch_loss = 0.0
            n_batches = 0
            for start in range(0, n_samples, batch_size):
                batch = order[start:start + batch_size]
                optimizer.zero_grad()
                predictions = compressor(Tensor(raw[batch]))
                loss = loss_fn(predictions, targets[batch])
                loss.backward()
                optimizer.step()
                epoch_loss += loss.item()
                n_batches += 1
            scheduler.step()
            if verbose and (epoch + 1) % 10 == 0:
                print(f"[Q-D-CNN] epoch {epoch + 1}/{epochs} "
                      f"loss={epoch_loss / max(1, n_batches):.6f}")
        return cls(compressor, config)

    def scale_seismic(self, sample: FWISample) -> np.ndarray:
        """Compress one sample: a batch of one through the compressor."""
        compressed = self.compressor.compress(np.asarray(sample.seismic,
                                                         dtype=np.float64))
        return compressed.reshape(self.config.scaled_seismic_shape)

    def scale_seismic_batch(self, samples: Sequence[FWISample]) -> np.ndarray:
        """Compress every sample's cube in one compressor pass.

        The cubes go to :meth:`CompressionCNN.compress` as a sequence, not
        a stacked copy, so peak memory does not grow with the raw data.
        """
        compressed = self.compressor.compress([sample.seismic
                                               for sample in samples])
        return compressed.reshape(len(samples),
                                  *self.config.scaled_seismic_shape)

    def state_dict(self) -> dict:
        return {"input_shape": self.compressor.input_shape,
                "output_size": self.compressor.output_size,
                "hidden_channels": self.compressor.hidden_channels,
                "network": self.compressor.state_dict()}


# --------------------------------------------------------------------------- #
# scaler (de)serialisation — saved pipelines carry their scaler with them
# --------------------------------------------------------------------------- #
def scaler_state(scaler: BaseScaler) -> dict:
    """Self-describing snapshot of a scaler (method name + state)."""
    return {"method": scaler.name, "state": scaler.state_dict()}


def scaler_from_state(payload: dict,
                      config: QuGeoDataConfig = None) -> BaseScaler:
    """Rebuild a scaler from :func:`scaler_state` output and a data config."""
    method = payload["method"]
    state = payload.get("state", {})
    if method == DSampleScaler.name:
        return DSampleScaler(config)
    if method == ForwardModelingScaler.name:
        return ForwardModelingScaler(
            config,
            simulation_shape=tuple(state["simulation_shape"]),
            simulation_steps=int(state["simulation_steps"]))
    if method == CNNScaler.name:
        compressor = CompressionCNN.from_state_dict(
            tuple(state["input_shape"]), int(state["output_size"]),
            tuple(state["hidden_channels"]), state["network"])
        return CNNScaler(compressor, config)
    raise ValueError(f"unknown scaler method {method!r}")
