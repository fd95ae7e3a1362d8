"""Pluggable statevector simulation backends.

Simulation is a first-class, swappable subsystem: every consumer
(:class:`~repro.quantum.circuit.ParameterizedCircuit`, the adjoint gradients
in :mod:`repro.quantum.autodiff`, :class:`~repro.core.vqc_model.QuGeoVQC`,
:class:`~repro.core.qubatch.QuBatchVQC` and the benchmarks) executes through
the :class:`SimulationBackend` interface and engines are resolved by name
from a registry:

>>> from repro.backends import get_backend
>>> get_backend("einsum")   # vectorised batched-statevector engine (the default)
>>> get_backend("numpy")    # per-gate loop, the reference oracle

The default is chosen per call site (an explicit argument or
``QuGeoVQCConfig.backend``), falling back to the ``QUGEO_BACKEND``
environment variable and then to ``"einsum"``.  Gradients run as one
reversible adjoint sweep on every engine (see
:mod:`repro.quantum.autodiff`), so no engine stores per-gate intermediates.
Future engines (GPU, sparse, remote hardware) plug in with
:func:`register_backend` without touching any caller.

The ``"torch"`` and ``"cupy"`` engines are the einsum engine re-based onto
the corresponding :mod:`repro.xm` array module — same contraction strategy,
device-resident tensors.  They are always *listed* but resolving them raises
a clear error when the optional dependency is not installed.
"""

from repro.backends.base import BackendCapabilities, SimulationBackend
from repro.backends.registry import (
    BACKEND_ENV_VAR,
    BackendError,
    DuplicateBackendError,
    UnknownBackendError,
    available_backends,
    default_backend_name,
    get_backend,
    register_backend,
    set_default_backend,
    unregister_backend,
)
from repro.backends.numpy_loop import NumpyLoopBackend
from repro.backends.einsum_batch import EinsumBatchBackend

def _array_module_backend(module_name: str):
    """Factory for an einsum engine running on a non-NumPy array module.

    Raises ``ArrayModuleUnavailableError`` (an ``ImportError``) at
    resolution time when the optional dependency is missing, so the names
    always appear in ``available_backends()`` but fail loudly on machines
    without the package.
    """
    from repro.xm import get_array_module

    backend = EinsumBatchBackend(xm=get_array_module(module_name))
    backend.name = module_name
    return backend


register_backend("numpy", NumpyLoopBackend)
register_backend("einsum", EinsumBatchBackend)
register_backend("torch", lambda: _array_module_backend("torch"))
register_backend("cupy", lambda: _array_module_backend("cupy"))

__all__ = [
    "BACKEND_ENV_VAR",
    "BackendCapabilities",
    "BackendError",
    "DuplicateBackendError",
    "EinsumBatchBackend",
    "NumpyLoopBackend",
    "SimulationBackend",
    "UnknownBackendError",
    "available_backends",
    "default_backend_name",
    "get_backend",
    "register_backend",
    "set_default_backend",
    "unregister_backend",
]
