"""Gradient-descent optimisers operating on :class:`~repro.nn.tensor.Tensor` parameters.

The same optimisers drive both the classical CNNs and the variational quantum
circuits (whose parameters are plain NumPy vectors wrapped in tensors), so
the training loops in :mod:`repro.core.training` are framework-agnostic.  The
paper trains everything with Adam (initial LR 0.1, cosine annealing).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.nn.tensor import Tensor


def _copy_arrays(arrays: Sequence[np.ndarray]) -> List[np.ndarray]:
    return [np.asarray(array, dtype=np.float64).copy() for array in arrays]


def _load_arrays(target: List[np.ndarray],
                 arrays: Sequence[np.ndarray], name: str) -> None:
    """Replace ``target``'s buffers with copies of ``arrays``, validating shapes."""
    if len(arrays) != len(target):
        raise ValueError(f"{name} count mismatch: "
                         f"{len(arrays)} vs {len(target)}")
    loaded = []
    for current, value in zip(target, arrays):
        value = np.asarray(value, dtype=np.float64)
        if value.shape != current.shape:
            raise ValueError(f"{name} shape mismatch: "
                             f"{value.shape} vs {current.shape}")
        loaded.append(value.copy())
    target[:] = loaded


class Optimizer:
    """Base optimiser holding a list of parameters."""

    def __init__(self, parameters: Iterable[Tensor], lr: float) -> None:
        self.parameters: List[Tensor] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = float(lr)

    def zero_grad(self) -> None:
        """Clear gradients of every managed parameter."""
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def state_dict(self) -> Dict[str, object]:
        """Copy of the optimiser state (subclasses add their buffers)."""
        return {"lr": self.lr}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore state produced by :meth:`state_dict`."""
        self.lr = float(state["lr"])


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, parameters: Iterable[Tensor], lr: float = 0.01,
                 momentum: float = 0.0, weight_decay: float = 0.0) -> None:
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros(p.data.shape, dtype=np.float64)
                          for p in self.parameters]

    def step(self) -> None:
        """Apply one SGD update using the accumulated gradients."""
        for param, velocity in zip(self.parameters, self._velocity):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                update = velocity
            else:
                update = grad
            param.data = param.data - self.lr * update

    def state_dict(self) -> Dict[str, object]:
        state = super().state_dict()
        state["velocity"] = _copy_arrays(self._velocity)
        return state

    def load_state_dict(self, state: Dict[str, object]) -> None:
        super().load_state_dict(state)
        _load_arrays(self._velocity, state["velocity"], "velocity")


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba, 2015)."""

    def __init__(self, parameters: Iterable[Tensor], lr: float = 0.001,
                 betas: Sequence[float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0) -> None:
        super().__init__(parameters, lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros(p.data.shape, dtype=np.float64)
                   for p in self.parameters]
        self._v = [np.zeros(p.data.shape, dtype=np.float64)
                   for p in self.parameters]

    def step(self) -> None:
        """Apply one Adam update using the accumulated gradients."""
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            param.data = (param.data
                          - self.lr * m_hat / (np.sqrt(v_hat) + self.eps))

    def state_dict(self) -> Dict[str, object]:
        state = super().state_dict()
        state["step_count"] = self._step_count
        state["m"] = _copy_arrays(self._m)
        state["v"] = _copy_arrays(self._v)
        return state

    def load_state_dict(self, state: Dict[str, object]) -> None:
        super().load_state_dict(state)
        self._step_count = int(state["step_count"])
        _load_arrays(self._m, state["m"], "m")
        _load_arrays(self._v, state["v"], "v")
