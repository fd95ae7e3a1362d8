"""The batched statevector engine: one C call per forward pass and one per
window of the adjoint sweep.

:class:`EinsumBatchBackend` (the name is historical: the engine runs no
``einsum``) keeps a ``(batch, 2**n)`` state stack batch-innermost, as the
``(2**n, batch)`` buffer of :func:`~repro.quantum.kernel.empty_stack`, and
hands whole gate streams to the compiled kernels of ``statevector.c``
through :mod:`repro.backends.kernels`, which it imports on its first call:
:meth:`run_batched` runs the whole circuit in one call per window of gate
tables, :meth:`apply_gate_batched` one gate in one call, and
:meth:`backward_sweep` the reversible adjoint sweep of
:func:`repro.quantum.autodiff.circuit_gradients_batched` in one call per
window of ops.  The engine checks its inputs before any C code runs.

Without a C compiler the engine warns once, counts ``backend.fallback`` on
every call and runs the per-state oracle
:class:`~repro.backends.numpy_loop.NumpyLoopBackend`, with the generic
sweep for gradients.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.backends.base import SimulationBackend
from repro.backends.numpy_loop import NumpyLoopBackend
from repro.quantum.autodiff import _reversible_backward_sweep
from repro.quantum.kernel import empty_stack
from repro.telemetry import get_telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.quantum.circuit import ParameterizedCircuit

#: The fallback engine where the compiled kernels are unavailable.
_ORACLE = NumpyLoopBackend()


def _kernels():
    """:mod:`repro.backends.kernels` and its library (``None`` where it
    cannot be built).  Imported on the first call, so importing the engine
    neither loads the library nor imports the stream-building code."""
    from repro.backends import kernels

    return kernels, kernels.load_library()


class EinsumBatchBackend(SimulationBackend):
    """Batched statevector simulation through the compiled gate kernels."""

    name = "einsum"

    def run_batched(self, circuit: "ParameterizedCircuit", states: np.ndarray,
                    params: Optional[np.ndarray] = None) -> np.ndarray:
        n = circuit.n_qubits
        states = np.asarray(states)
        if states.ndim != 2:
            raise ValueError("states must have shape (batch, 2**n_qubits)")
        if states.shape[1] != 2**n:
            raise ValueError(
                f"state length {states.shape[1]} does not match {n} qubits")
        batch = states.shape[0]
        params = self._normalise_params(circuit, batch, params)
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.counter("backend.einsum.run_batched.calls").inc()
            telemetry.counter("backend.einsum.run_batched.samples").inc(batch)
            telemetry.gauge("backend.einsum.last_batch_size").set(batch)
        kernels, library = _kernels()
        if library is None:
            telemetry.counter("backend.fallback").inc()
            return _ORACLE.run_batched(circuit, states, params)
        with telemetry.span("einsum.run_batched"):
            stack = empty_stack(batch, 2**n)
            stack[...] = states
            kernels.forward(library, circuit, params, stack)
            return np.ascontiguousarray(stack)

    def run(self, circuit: "ParameterizedCircuit", state: np.ndarray,
            params: Optional[np.ndarray] = None) -> np.ndarray:
        state = self.validate_state(circuit, state)
        return self.run_batched(circuit, state[None, :], params)[0]

    def apply_gate_batched(self, states: np.ndarray, matrix: np.ndarray,
                           targets: Sequence[int], n_qubits: int
                           ) -> np.ndarray:
        """Apply one gate matrix to a copy of the whole stack."""
        states = np.asarray(states)
        if states.ndim != 2:
            raise ValueError("states must have shape (batch, 2**n_qubits)")
        stack = empty_stack(*states.shape)
        stack[...] = states
        self.apply_gate_batched_inplace(stack, matrix, targets, n_qubits)
        return np.ascontiguousarray(stack)

    def apply_gate_batched_inplace(self, stack: np.ndarray,
                                   matrix: np.ndarray,
                                   targets: Sequence[int],
                                   n_qubits: int) -> None:
        """Apply a ``(2**k, 2**k)`` matrix, or a per-row ``(batch, 2**k,
        2**k)`` stack of them, to every row of ``stack`` in place."""
        targets = tuple(int(t) for t in targets)
        matrix = np.asarray(matrix, dtype=np.complex128)
        if len(targets) not in (1, 2) or len(set(targets)) != len(targets):
            raise ValueError(f"the engine applies gates on one or two "
                             f"distinct qubits, got {targets}")
        if not all(0 <= t < n_qubits for t in targets):
            raise ValueError(f"targets {targets} outside a register of "
                             f"{n_qubits} qubits")
        if (stack.ndim != 2 or stack.shape[1] != 2**n_qubits
                or stack.dtype != np.complex128):
            raise ValueError(f"stack must be a complex128 (batch, "
                             f"{2**n_qubits}) array, got {stack.dtype} "
                             f"{stack.shape}")
        dim = 2**len(targets)
        if matrix.shape not in ((dim, dim), (stack.shape[0], dim, dim)):
            raise ValueError(f"matrix shape {matrix.shape} does not fit "
                             f"{len(targets)} target(s) and batch "
                             f"{stack.shape[0]}")
        kernels, library = _kernels()
        if library is None:
            get_telemetry().counter("backend.fallback").inc()
            rows = np.broadcast_to(matrix, (len(stack), dim, dim))
            stack[...] = [_ORACLE.apply_gate(state, row, targets, n_qubits)
                          for state, row in zip(stack, rows)]
            return
        kernels.apply_gate(library, stack, matrix, targets, n_qubits)

    def backward_sweep(self, circuit: "ParameterizedCircuit",
                       params: np.ndarray, lams: np.ndarray,
                       outputs: np.ndarray, grads: np.ndarray) -> None:
        """The reversible sweep in one compiled call per window of ops."""
        kernels, library = _kernels()
        if library is None:
            get_telemetry().counter("backend.fallback").inc()
            _reversible_backward_sweep(_ORACLE, circuit, params, lams,
                                       outputs, grads)
            return
        kernels.sweep(library, circuit, params, lams, outputs, grads)

    def _normalise_params(self, circuit: "ParameterizedCircuit", batch: int,
                          params: Optional[np.ndarray]) -> np.ndarray:
        """Validate a shared vector or a ``(batch, n_params)`` matrix."""
        if params is None or np.ndim(params) <= 1:
            return self.validate_params(circuit, params)
        params = np.asarray(params, dtype=np.float64)
        if params.ndim == 2:
            if params.shape[1] != circuit.n_params:
                raise ValueError(
                    f"expected {circuit.n_params} parameters per row, got "
                    f"{params.shape[1]}")
            if params.shape[0] != batch:
                raise ValueError(
                    f"parameter batch {params.shape[0]} does not match state "
                    f"batch {batch}")
            return params
        raise ValueError("params must be a vector or a (batch, n_params) matrix")
