"""PyTorch implementation of :class:`~repro.xm.ops.ArrayOps`.

Import-guarded: constructing :class:`TorchOps` raises
:class:`~repro.utils.registry.UnavailableError` when ``torch`` is not
installed, so the registry can always *list* the module while resolution
fails loudly on machines without the dependency.

Tensors live on CUDA when available, else CPU; :meth:`to_numpy` moves them
back to the host, which is where the engine boundaries hand results to
callers.
"""

from __future__ import annotations

import numpy as np

from repro.utils.registry import UnavailableError
from repro.xm.ops import ArrayOps

try:  # pragma: no cover - exercised only where torch is installed
    import torch
except ImportError:  # pragma: no cover
    torch = None


class TorchOps(ArrayOps):
    """ArrayOps over ``torch.Tensor`` (CUDA when available, else CPU)."""

    name = "torch"

    def __init__(self, device=None):
        if torch is None:
            raise UnavailableError(
                "array module 'torch' requires the optional package "
                "'torch', which is not installed")
        if device is None:
            device = "cuda" if torch.cuda.is_available() else "cpu"
        self.device = str(device)
        self._device = torch.device(self.device)
        self._dtype_map = {
            np.dtype(np.float64): torch.float64,
            np.dtype(np.float32): torch.float32,
            np.dtype(np.complex128): torch.complex128,
            np.dtype(np.complex64): torch.complex64,
            np.dtype(np.intp): torch.long,
            np.dtype(np.int64): torch.long,
            np.dtype(np.int32): torch.int32,
            np.dtype(np.bool_): torch.bool,
        }

    def native_dtype(self, dtype):
        if isinstance(dtype, torch.dtype):
            return dtype
        key = np.dtype(dtype)
        try:
            return self._dtype_map[key]
        except KeyError:
            raise TypeError(
                f"array module 'torch' has no mapping for dtype {key}") from None

    def asarray(self, array, dtype=None):
        native = None if dtype is None else self.native_dtype(dtype)
        if isinstance(array, torch.Tensor):
            return array.to(device=self._device, dtype=native or array.dtype)
        # torch.as_tensor shares memory with the source ndarray where it
        # can, matching np.asarray's no-copy behaviour on CPU.
        return torch.as_tensor(np.asarray(array), dtype=native,
                               device=self._device)

    def ascontiguous(self, array):
        return array.contiguous()

    def zeros(self, shape, dtype):
        return torch.zeros(shape, dtype=self.native_dtype(dtype),
                           device=self._device)

    def empty(self, shape, dtype):
        return torch.empty(shape, dtype=self.native_dtype(dtype),
                           device=self._device)

    def zeros_like(self, array):
        return torch.zeros_like(array)

    def empty_like(self, array):
        return torch.empty_like(array)

    def stack(self, arrays):
        return torch.stack([self.asarray(a) for a in arrays])

    def to_numpy(self, array) -> np.ndarray:
        if isinstance(array, torch.Tensor):
            return array.detach().cpu().numpy()
        return np.asarray(array)

    def reshape(self, array, shape):
        return array.reshape(shape)

    def size(self, array) -> int:
        return int(array.numel())

    def einsum(self, subscripts, *operands):
        return torch.einsum(subscripts, *operands)

    def matmul(self, a, b, out=None):
        return torch.matmul(a, b, out=out)

    def multiply(self, a, b, out=None):
        return torch.mul(a, b, out=out)

    def conj(self, array):
        # resolve_conj materialises the lazy conjugate bit so downstream
        # reshape/einsum treat it as a plain tensor.
        return torch.conj(array).resolve_conj()

    def abs2(self, array):
        return torch.abs(array) ** 2

    def synchronize(self) -> None:
        if self._device.type == "cuda":
            torch.cuda.synchronize(self._device)
