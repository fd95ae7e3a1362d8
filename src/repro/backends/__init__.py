"""Statevector simulation: one production engine and one reference oracle.

Every consumer (:class:`~repro.quantum.circuit.ParameterizedCircuit`, the
adjoint gradients in :mod:`repro.quantum.autodiff`,
:class:`~repro.core.vqc_model.QuGeoVQC`, :class:`~repro.core.qubatch.QuBatchVQC`
and the benchmarks) executes through the :class:`SimulationBackend`
interface.  No setting selects the engine:

>>> from repro.backends import get_backend, NumpyLoopBackend
>>> get_backend()                    # a fresh EinsumBatchBackend, the engine
>>> get_backend(NumpyLoopBackend())  # an instance is used as it is

:class:`EinsumBatchBackend` is the production engine (the name is
historical): one compiled C call per forward pass and one per window of the
adjoint sweep (``statevector.c``, built on first use).
:class:`NumpyLoopBackend` is the per-gate reference oracle; tests pass it in
explicitly to check the engine against code it shares nothing with, and
the engine runs it itself, after one warning, where no C compiler is
available.  Both compute in ``complex128``; no setting changes the
precision.  Gradients run as one reversible adjoint sweep on either engine
(see :mod:`repro.quantum.autodiff`).
"""

from typing import Optional

from repro.backends.base import SimulationBackend
from repro.backends.numpy_loop import NumpyLoopBackend
from repro.backends.einsum_batch import EinsumBatchBackend


def get_backend(engine: Optional[SimulationBackend] = None) -> SimulationBackend:
    """``engine`` as it is, or a fresh :class:`EinsumBatchBackend` for ``None``.

    Anything else, engine names included, raises :class:`TypeError`.
    """
    if engine is None:
        return EinsumBatchBackend()
    if isinstance(engine, SimulationBackend):
        return engine
    raise TypeError(
        f"backend must be None or a SimulationBackend instance such as "
        f"EinsumBatchBackend() or NumpyLoopBackend(), got {engine!r}")


__all__ = [
    "EinsumBatchBackend",
    "NumpyLoopBackend",
    "SimulationBackend",
    "get_backend",
]
