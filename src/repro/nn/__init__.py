"""A small NumPy autograd / neural-network substrate.

The paper trains its classical components (the Q-D-CNN data compressor and
the CNN-PX / CNN-LY baselines) in PyTorch; this package provides the minimal
equivalent so the reproduction has no deep-learning framework dependency:

* :class:`~repro.nn.tensor.Tensor` — reverse-mode autograd over NumPy arrays,
* layers — ``Linear``, ``Conv2d``, ``ReLU``, ``Flatten``, ``AvgPool2d``,
  ``Sequential``,
* losses — ``MSELoss``, ``L1Loss``,
* optimisers — ``SGD``, ``Adam``,
* schedulers — ``CosineAnnealingLR`` (the schedule used in the paper).
"""

from repro.nn.tensor import Tensor
from repro.nn.layers import (
    Module,
    Linear,
    Conv2d,
    ReLU,
    Sigmoid,
    Tanh,
    Flatten,
    AvgPool2d,
    Sequential,
)
from repro.nn.losses import MSELoss, L1Loss
from repro.nn.optim import SGD, Adam
from repro.nn.scheduler import CosineAnnealingLR, StepLR

__all__ = [
    "Tensor",
    "Module",
    "Linear",
    "Conv2d",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "Flatten",
    "AvgPool2d",
    "Sequential",
    "MSELoss",
    "L1Loss",
    "SGD",
    "Adam",
    "CosineAnnealingLR",
    "StepLR",
]
