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
Future engines plug in with ``BACKENDS.register(name, factory)`` without
touching any caller; factories run lazily and the instance is cached per
name, so repeated ``get_backend("einsum")`` calls share one engine.
"""

from repro.backends.base import SimulationBackend
from repro.backends.numpy_loop import NumpyLoopBackend
from repro.backends.einsum_batch import EinsumBatchBackend
from repro.utils import env
from repro.utils.registry import Registry

BACKENDS: Registry[SimulationBackend] = Registry(
    "simulation backend", env.BACKEND, "einsum", SimulationBackend)
BACKENDS.register("numpy", NumpyLoopBackend)
BACKENDS.register("einsum", EinsumBatchBackend)

get_backend = BACKENDS.get

__all__ = [
    "BACKENDS",
    "EinsumBatchBackend",
    "NumpyLoopBackend",
    "SimulationBackend",
    "get_backend",
]
