"""The array-module abstraction (``ArrayOps``) and its registry.

An :class:`ArrayOps` instance is the narrow waist between the numeric
engines (the einsum simulation backend, the batched acoustic propagator)
and the array library executing them.  It exposes exactly the operations
those hot loops need — allocation, reshape, ``einsum``, ``matmul``, casting
and host transfer — with NumPy semantics, so an engine written against it
runs unchanged on NumPy or PyTorch (CPU or GPU) arrays.

Modules live in :data:`ARRAY_MODULES`, a :class:`~repro.utils.registry.Registry`
resolving an explicit name (or ready instance), then the
``QUGEO_ARRAY_MODULE`` environment variable, then ``"numpy"``.  The torch
module is always listed but raises
:class:`~repro.utils.registry.UnavailableError` (naming the missing package)
when resolved without torch installed, so ``get_array_module("torch")``
fails loudly instead of at the first contraction.
"""

from __future__ import annotations

import numpy as np

from repro.utils import env
from repro.utils.registry import Registry


class ArrayOps:
    """NumPy-semantics operation set over one array library.

    The base class *is* the NumPy implementation; alternative libraries
    subclass it and override the methods whose spelling differs.  All
    ``dtype`` arguments are NumPy dtypes — :meth:`native_dtype` translates
    them to the library's own dtype objects where needed.
    """

    #: Registry key and display name.
    name: str = "numpy"

    #: Device the module computes on ("cpu" for NumPy).
    device: str = "cpu"

    # ------------------------------------------------------------------ #
    # dtype translation
    # ------------------------------------------------------------------ #
    def native_dtype(self, dtype):
        """Translate a NumPy dtype to the library's dtype object."""
        return np.dtype(dtype)

    # ------------------------------------------------------------------ #
    # construction / conversion
    # ------------------------------------------------------------------ #
    def asarray(self, array, dtype=None):
        """Coerce ``array`` (host or native) to a native array."""
        return np.asarray(array, dtype=dtype)

    def ascontiguous(self, array):
        """A C-contiguous view (or copy) of ``array``."""
        return np.ascontiguousarray(array)

    def zeros(self, shape, dtype):
        return np.zeros(shape, dtype=dtype)

    def empty(self, shape, dtype):
        return np.empty(shape, dtype=dtype)

    def zeros_like(self, array):
        return np.zeros_like(array)

    def empty_like(self, array):
        return np.empty_like(array)

    def stack(self, arrays):
        return np.stack(arrays)

    def to_numpy(self, array) -> np.ndarray:
        """Transfer a native array back to a host NumPy array (no copy on
        NumPy itself)."""
        return np.asarray(array)

    # ------------------------------------------------------------------ #
    # shape / structure
    # ------------------------------------------------------------------ #
    def reshape(self, array, shape):
        return array.reshape(shape)

    def size(self, array) -> int:
        """Total element count of ``array``."""
        return int(array.size)

    # ------------------------------------------------------------------ #
    # arithmetic kernels
    # ------------------------------------------------------------------ #
    def einsum(self, subscripts: str, *operands):
        return np.einsum(subscripts, *operands)

    def matmul(self, a, b, out=None):
        return np.matmul(a, b, out=out)

    def multiply(self, a, b, out=None):
        return np.multiply(a, b, out=out)

    def conj(self, array):
        return np.conj(array)

    def abs2(self, array):
        """Elementwise ``|x|^2`` (measurement probabilities)."""
        return np.abs(array) ** 2

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def synchronize(self) -> None:
        """Block until queued device work is done (no-op on CPU modules)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, device={self.device!r})"


#: The NumPy implementation is the base class itself.
NumpyOps = ArrayOps


def _torch_factory() -> ArrayOps:
    from repro.xm.torch_ops import TorchOps

    return TorchOps()


ARRAY_MODULES: Registry[ArrayOps] = Registry(
    "array module", env.ARRAY_MODULE, "numpy", ArrayOps)
ARRAY_MODULES.register("numpy", NumpyOps)
ARRAY_MODULES.register("torch", _torch_factory)

get_array_module = ARRAY_MODULES.get
