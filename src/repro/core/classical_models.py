"""Classical CNN models: baselines and the Q-D-CNN data compressor.

Three models are defined, all built on :mod:`repro.nn`:

* :func:`build_cnn_px` / :func:`build_cnn_ly` — the LeNet-like baselines of
  Table 2 (pixel-wise and layer-wise decoding heads).  Their parameter counts
  are kept at the same level as the 576-parameter QuGeoVQC, as the paper does
  (it reports 634 and 616 parameters).
* :class:`CompressionCNN` — the Q-D-CNN data compressor of Section 3.1.2: two
  convolutional layers (each followed by ReLU) and a fully connected layer
  that maps raw seismic data to the physics-guided scaled representation.

:class:`ClassicalFWIModel` wraps a network together with its input/output
shapes so the trainers and the experiment harness can treat classical and
quantum models uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple, Union

import numpy as np

from repro.nn import (
    AvgPool2d,
    Conv2d,
    Flatten,
    Linear,
    Module,
    ReLU,
    Sequential,
    Tensor,
)
from repro.utils.rng import RngLike, ensure_rng


@dataclass
class ClassicalFWIModel:
    """A classical seismic-to-velocity regressor.

    Parameters
    ----------
    network:
        The underlying :class:`~repro.nn.layers.Module`.
    input_shape:
        Shape of one seismic input presented as an image ``(channels, H, W)``.
    output_shape:
        Velocity-map shape ``(depth, width)`` for pixel-wise models, or
        ``(depth,)`` broadcast across rows for layer-wise models.
    decoder:
        ``"pixel"`` or ``"layer"`` — how the network output maps onto the
        velocity map.
    name:
        Display name used in result tables (e.g. ``"CNN-PX"``).
    """

    network: Module
    input_shape: Tuple[int, ...]
    output_shape: Tuple[int, ...]
    decoder: str
    name: str

    def __post_init__(self) -> None:
        if self.decoder not in ("pixel", "layer"):
            raise ValueError("decoder must be 'pixel' or 'layer'")

    def num_parameters(self) -> int:
        """Number of trainable parameters of the wrapped network."""
        return self.network.num_parameters()

    # -- Model protocol (shared with the quantum models) ----------------- #
    def parameter_tensors(self) -> Tuple[Tensor, ...]:
        """Tensors the optimiser updates."""
        return tuple(self.network.parameters())

    def predict_batch(self, seismic_batch) -> np.ndarray:
        """Alias of :meth:`predict_velocity` under the common Model protocol."""
        return self.predict_velocity(np.asarray(seismic_batch, dtype=np.float64))

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of the wrapped network's tensors."""
        return self.network.state_dict()

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load arrays produced by :meth:`state_dict`."""
        self.network.load_state_dict(state)

    def prepare_input(self, seismic: np.ndarray) -> np.ndarray:
        """Reshape one (or a batch of) flat seismic vectors to the input image."""
        seismic = np.asarray(seismic, dtype=np.float64)
        expected = int(np.prod(self.input_shape))
        if seismic.ndim == 1 or seismic.shape == tuple(self.input_shape):
            if seismic.size != expected:
                raise ValueError(f"seismic has {seismic.size} values, expected {expected}")
            return seismic.reshape((1,) + tuple(self.input_shape))
        flat = seismic.reshape(seismic.shape[0], -1)
        if flat.shape[1] != expected:
            raise ValueError(f"seismic has {flat.shape[1]} values, expected {expected}")
        return flat.reshape((seismic.shape[0],) + tuple(self.input_shape))

    def forward(self, seismic: np.ndarray) -> Tensor:
        """Run the network on a batch of seismic inputs (returns a Tensor)."""
        return self.network(Tensor(self.prepare_input(seismic)))

    def predict_velocity(self, seismic: np.ndarray) -> np.ndarray:
        """Predict normalised velocity maps for a batch of seismic inputs."""
        output = self.forward(seismic).numpy()
        batch = output.shape[0]
        depth, width = self._map_shape()
        if self.decoder == "pixel":
            return output.reshape(batch, depth, width)
        rows = output.reshape(batch, depth, 1)
        return np.broadcast_to(rows, (batch, depth, width)).copy()

    def expand_prediction(self, output: Tensor) -> Tensor:
        """Expand a layer-wise prediction across columns inside the graph."""
        if self.decoder == "pixel":
            return output
        depth, width = self._map_shape()
        batch = output.shape[0]
        rows = output.reshape(batch, depth, 1)
        ones = Tensor(np.ones((1, 1, width)))
        return rows * ones

    def _map_shape(self) -> Tuple[int, int]:
        if self.decoder == "pixel":
            size = int(np.prod(self.output_shape))
            side = int(np.sqrt(size))
            if side * side == size:
                return side, side
            return tuple(self.output_shape)  # type: ignore[return-value]
        depth = int(self.output_shape[0])
        width = int(self.output_shape[1]) if len(self.output_shape) > 1 else depth
        return depth, width


def _infer_image_shape(input_size: int,
                       n_channels: int = 1) -> Tuple[int, int, int]:
    """Arrange ``input_size`` values into a near-square single-channel image."""
    side = int(np.sqrt(input_size // n_channels))
    while side > 1 and (input_size % (n_channels * side)) != 0:
        side -= 1
    height = side
    width = input_size // (n_channels * side)
    return n_channels, height, width


def build_cnn_px(input_size: int = 256, output_shape: Tuple[int, int] = (8, 8),
                 rng: RngLike = None) -> ClassicalFWIModel:
    """Build the CNN-PX baseline: pixel-wise prediction of the velocity map.

    With the default 256-value input (arranged as a 16x16 image) and an 8x8
    output this network has 634 parameters, matching Table 2 of the paper:
    ``Conv2d(1->2, 3x3)`` (20) + ``Conv2d(2->2, 3x3)`` (38) +
    ``Linear(8 -> 64)`` (576).
    """
    rng = ensure_rng(rng)
    channels, height, width = _infer_image_shape(input_size)
    outputs = int(np.prod(output_shape))
    network = Sequential(
        Conv2d(channels, 2, 3, padding=1, rng=rng),
        ReLU(),
        AvgPool2d(4),
        Conv2d(2, 2, 3, padding=1, rng=rng),
        ReLU(),
        AvgPool2d(2),
        Flatten(),
        Linear(2 * (height // 8) * (width // 8), outputs, rng=rng),
    )
    return ClassicalFWIModel(network=network,
                             input_shape=(channels, height, width),
                             output_shape=tuple(output_shape),
                             decoder="pixel", name="CNN-PX")


def build_cnn_ly(input_size: int = 256, output_shape: Tuple[int, int] = (8, 8),
                 rng: RngLike = None) -> ClassicalFWIModel:
    """Build the CNN-LY baseline: one velocity per velocity-map row.

    With the default 256-value input and 8 output rows the network has 648
    parameters (the paper reports 616; both sit at the same "hundreds of
    parameters" level as the 576-parameter QuGeoVQC):
    ``Conv2d(1->2, 5x5)`` (52) + ``Conv2d(2->4, 3x3)`` (76) +
    ``Linear(64 -> 8)`` (520).
    """
    rng = ensure_rng(rng)
    channels, height, width = _infer_image_shape(input_size)
    depth = int(output_shape[0])
    network = Sequential(
        Conv2d(channels, 2, 5, padding=2, rng=rng),
        ReLU(),
        AvgPool2d(2),
        Conv2d(2, 4, 3, padding=1, rng=rng),
        ReLU(),
        AvgPool2d(2),
        Flatten(),
        Linear(4 * (height // 4) * (width // 4), depth, rng=rng),
    )
    return ClassicalFWIModel(network=network,
                             input_shape=(channels, height, width),
                             output_shape=tuple(output_shape),
                             decoder="layer", name="CNN-LY")


class CompressionCNN(Module):
    """The Q-D-CNN data compressor (Section 3.1.2).

    A LeNet-like network with two convolutional layers (each followed by a
    ReLU) and one fully connected layer.  It learns the mapping from raw
    seismic data ``D`` to the physics-guided scaled data ``phyD`` so that, at
    inference time, data can be scaled for the quantum circuit without
    knowing the subsurface velocity.

    Parameters
    ----------
    input_shape:
        Raw seismic shape ``(n_sources, n_time, n_receivers)`` treated as a
        multi-channel image (one channel per source).
    output_size:
        Number of scaled values to produce (256 in the paper's experiments).
    hidden_channels:
        Channel counts of the two convolutional layers.
    """

    def __init__(self, input_shape: Tuple[int, int, int], output_size: int,
                 hidden_channels: Tuple[int, int] = (4, 8),
                 rng: RngLike = None) -> None:
        rng = ensure_rng(rng)
        self._build(input_shape, output_size, hidden_channels,
                    lambda c_in, c_out: Conv2d(c_in, c_out, 3, padding=1,
                                               rng=rng),
                    lambda n_in, n_out: Linear(n_in, n_out, rng=rng))

    @classmethod
    def from_state_dict(cls, input_shape: Tuple[int, int, int],
                        output_size: int, hidden_channels: Tuple[int, int],
                        state: Dict[str, np.ndarray]) -> "CompressionCNN":
        """Rebuild a saved compressor around its :meth:`state_dict` arrays.

        No initial weights are drawn and nothing is copied: the layers
        start from unwritten placeholders, and the arrays of ``state``
        become the parameters as they are.  Missing or unexpected entries
        raise ``KeyError`` and mis-shaped ones ``ValueError``, as
        :meth:`load_state_dict` does; an array holding NaN or inf raises
        ``ValueError`` naming its key.
        """
        compressor = cls.__new__(cls)
        compressor._build(
            input_shape, output_size, hidden_channels,
            lambda c_in, c_out: Conv2d.from_arrays(
                np.empty((c_out, c_in, 3, 3)), np.empty(c_out), padding=1),
            lambda n_in, n_out: Linear.from_arrays(np.empty((n_out, n_in)),
                                                   np.empty(n_out)))
        for name, param, value in compressor._matched(state):
            if not np.isfinite(value).all():
                raise ValueError(f"compressor state {name!r} holds NaN or inf")
            param.data = value
        return compressor

    def _build(self, input_shape: Tuple[int, int, int], output_size: int,
               hidden_channels: Tuple[int, int],
               conv: Callable[[int, int], Conv2d],
               linear: Callable[[int, int], Linear]) -> None:
        """Lay out the network; ``conv(c_in, c_out)`` and ``linear(n_in,
        n_out)`` make its parametric layers, in parameter order."""
        n_sources, n_time, n_receivers = input_shape
        if n_sources <= 0 or n_time <= 0 or n_receivers <= 0:
            raise ValueError("input_shape entries must be positive")
        if output_size <= 0:
            raise ValueError("output_size must be positive")
        self.input_shape = (int(n_sources), int(n_time), int(n_receivers))
        self.output_size = int(output_size)
        c1, c2 = hidden_channels
        self.hidden_channels = (int(c1), int(c2))

        pool1 = 2 if min(n_time, n_receivers) >= 8 else 1
        after1 = (n_time // pool1, n_receivers // pool1)
        pool2 = 2 if min(after1) >= 8 else 1
        after2 = (after1[0] // pool2, after1[1] // pool2)

        self.features = Sequential(
            conv(n_sources, c1),
            ReLU(),
            AvgPool2d(pool1),
            conv(c1, c2),
            ReLU(),
            AvgPool2d(pool2),
            Flatten(),
        )
        flat_features = c2 * after2[0] * after2[1]
        self.head = linear(flat_features, self.output_size)

    def forward(self, inputs: Tensor) -> Tensor:
        return self.head(self.features(inputs))

    def compress(self, seismic: Union[np.ndarray, Sequence[np.ndarray]]
                 ) -> np.ndarray:
        """Compress raw seismic cubes to ``output_size`` scaled values each.

        A 3-D cube is a batch of one and returns ``(output_size,)``; a 4-D
        stack or a sequence of cubes returns ``(n, output_size)``.  The
        convolutional features run once per cube, which bounds each
        convolution's width-unfolded input (three copies of the padded
        cube for the 3x3 kernels) to one cube's worth, and the dense head
        runs once on the stacked features.  Cubes are never stacked into a
        new array.
        """
        if isinstance(seismic, np.ndarray) and seismic.ndim not in (3, 4):
            raise ValueError(f"seismic shape {seismic.shape} is neither a cube "
                             f"{self.input_shape} nor a stack of them")
        single = isinstance(seismic, np.ndarray) and seismic.ndim == 3
        features = []
        for cube in ([seismic] if single else seismic):
            cube = np.asarray(cube, dtype=np.float64)
            if cube.shape != self.input_shape:
                raise ValueError(f"seismic shape {cube.shape} does not match "
                                 f"{self.input_shape}")
            features.append(self.features(Tensor(cube[np.newaxis])).numpy())
        if not features:
            raise ValueError("empty batch: no seismic cubes to compress")
        output = self.head(Tensor(np.concatenate(features))).numpy()
        return output[0] if single else output
