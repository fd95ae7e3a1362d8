"""Neural-network layers built on the autograd :class:`~repro.nn.tensor.Tensor`.

Only the layers the QuGeo classical models need are provided (LeNet-style
CNNs): convolution, linear, activations, flatten, pooling and a sequential
container.  Every layer exposes ``parameters()`` and ``named_parameters()``
for the optimisers and for parameter counting (Table 2 of the paper matches
parameter budgets across quantum and classical models).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.tensor import Tensor
from repro.utils.rng import RngLike, ensure_rng


class Module:
    """Base class for layers and models.

    Subclasses register :class:`Tensor` parameters as attributes; the base
    class discovers them (and the parameters of sub-modules) recursively.
    """

    def forward(self, inputs: Tensor) -> Tensor:
        raise NotImplementedError

    def __call__(self, inputs: Tensor) -> Tensor:
        if not isinstance(inputs, Tensor):
            inputs = Tensor(inputs)
        return self.forward(inputs)

    # ------------------------------------------------------------------ #
    # parameter discovery
    # ------------------------------------------------------------------ #
    def named_tensors(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        """Yield every ``(name, Tensor)`` of this module and its children.

        Unlike :meth:`named_parameters` this includes tensors with
        ``requires_grad=False`` (frozen buffers), so serialisation round
        trips the full module state, not just what the optimiser updates.
        """
        for name, value in vars(self).items():
            full_name = f"{prefix}{name}"
            if isinstance(value, Tensor):
                yield full_name, value
            elif isinstance(value, Module):
                yield from value.named_tensors(prefix=f"{full_name}.")
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_tensors(
                            prefix=f"{full_name}.{index}.")
                    elif isinstance(item, Tensor):
                        yield f"{full_name}.{index}", item

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        """Yield ``(name, parameter)`` pairs of this module and its children."""
        for name, tensor in self.named_tensors(prefix=prefix):
            if tensor.requires_grad:
                yield name, tensor

    def parameters(self) -> List[Tensor]:
        """Return the list of trainable parameters."""
        return [param for _, param in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total number of trainable scalar parameters."""
        return int(sum(param.size for param in self.parameters()))

    def zero_grad(self) -> None:
        """Clear the gradients of every parameter."""
        for param in self.parameters():
            param.zero_grad()

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a copy of every tensor array keyed by name.

        Frozen (``requires_grad=False``) tensors are included so a loaded
        module reproduces the saved one exactly.
        """
        return {name: tensor.data.copy() for name, tensor in self.named_tensors()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load tensor arrays produced by :meth:`state_dict`."""
        own = dict(self.named_tensors())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state mismatch: missing={sorted(missing)}, "
                           f"unexpected={sorted(unexpected)}")
        for name, param in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.shape:
                raise ValueError(f"shape mismatch for {name}: "
                                 f"{value.shape} vs {param.shape}")
            param.data = value.copy()


class Linear(Module):
    """Fully connected layer ``y = x W^T + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: RngLike = None) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature counts must be positive")
        rng = ensure_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(init.kaiming_uniform((out_features, in_features),
                                                  fan_in=in_features, rng=rng),
                             requires_grad=True)
        self.bias = (Tensor(init.uniform_bias((out_features,), in_features, rng=rng),
                            requires_grad=True) if bias else None)

    def forward(self, inputs: Tensor) -> Tensor:
        if inputs.ndim == 1:
            inputs = inputs.reshape(1, -1)
        return F.linear(inputs, self.weight, self.bias)


class Conv2d(Module):
    """2-D convolution layer over ``(N, C, H, W)`` inputs."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size,
                 stride=1, padding=0, bias: bool = True,
                 rng: RngLike = None) -> None:
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError("channel counts must be positive")
        rng = ensure_rng(rng)
        kh, kw = F._pair(kernel_size)
        fan_in = in_channels * kh * kw
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = (kh, kw)
        self.stride = stride
        self.padding = padding
        self.weight = Tensor(
            init.kaiming_uniform((out_channels, in_channels, kh, kw),
                                 fan_in=fan_in, rng=rng),
            requires_grad=True)
        self.bias = (Tensor(init.uniform_bias((out_channels,), fan_in, rng=rng),
                            requires_grad=True) if bias else None)

    def forward(self, inputs: Tensor) -> Tensor:
        return F.conv2d(inputs, self.weight, self.bias,
                        stride=self.stride, padding=self.padding)


class ReLU(Module):
    """Rectified linear activation."""

    def forward(self, inputs: Tensor) -> Tensor:
        return inputs.relu()


class Sigmoid(Module):
    """Logistic sigmoid activation."""

    def forward(self, inputs: Tensor) -> Tensor:
        return inputs.sigmoid()


class Tanh(Module):
    """Hyperbolic tangent activation."""

    def forward(self, inputs: Tensor) -> Tensor:
        return inputs.tanh()


class Flatten(Module):
    """Flatten all dimensions except the batch dimension."""

    def forward(self, inputs: Tensor) -> Tensor:
        batch = inputs.shape[0]
        return inputs.reshape(batch, -1)


class AvgPool2d(Module):
    """Average pooling layer."""

    def __init__(self, kernel_size, stride=None) -> None:
        self.kernel_size = kernel_size
        self.stride = stride

    def forward(self, inputs: Tensor) -> Tensor:
        return F.avg_pool2d(inputs, self.kernel_size, self.stride)


class MaxPool2d(Module):
    """Max pooling layer."""

    def __init__(self, kernel_size, stride=None) -> None:
        self.kernel_size = kernel_size
        self.stride = stride

    def forward(self, inputs: Tensor) -> Tensor:
        return F.max_pool2d(inputs, self.kernel_size, self.stride)


class Sequential(Module):
    """Container applying modules in order."""

    def __init__(self, *modules: Module) -> None:
        self.layers = list(modules)

    def forward(self, inputs: Tensor) -> Tensor:
        out = inputs
        for layer in self.layers:
            out = layer(out)
        return out

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]
