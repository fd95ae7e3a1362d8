"""Vectorised batched-statevector engine: one strided-view gate kernel.

:class:`EinsumBatchBackend` updates the whole ``(batch, 2**n)`` state stack
gate by gate, in place, with the kernel of :mod:`repro.quantum.kernel`: for
a gate on target ``t`` the stack is viewed (reshape only, no copy) as
``(batch, 2**t, 2, 2**(n-1-t))`` and its two halves ``x0``/``x1`` get the
four multiply-adds of the 2x2 block.  A controlled gate — any 4x4 matrix
with an identity control=0 block and zero off-diagonal blocks (CU3, CRX,
CNOT, CZ) — updates only the control=1 sub-view with its 2x2 block; other
multi-qubit gates (SWAP) mix the ``2**k`` sub-views of their targets the
same way.  Per-row matrices (a ``(batch, n_params)`` parameter matrix)
broadcast through the same code, and temporaries keep the stack's dtype.

The op matrices come from one constructor call per gate family and window
of ops (:meth:`repro.quantum.circuit.ParameterizedCircuit.op_matrices`), and
adjacent single-qubit gates on a wire are fused into one 2x2 matrix.  The
engine's name stays ``einsum``.  Training runs the reversible adjoint sweep
of :func:`repro.quantum.autodiff.circuit_gradients_batched` on it: one
:meth:`EinsumBatchBackend.run_batched` forward, then one
:meth:`EinsumBatchBackend.apply_gate_batched_inplace` per op.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, Optional, Tuple

import numpy as np

from repro.backends.base import SimulationBackend
from repro.quantum.kernel import apply_gate_inplace, empty_stack
from repro.telemetry import get_telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.quantum.circuit import ParameterizedCircuit


class EinsumBatchBackend(SimulationBackend):
    """Batched statevector simulation via in-place strided-view gate updates."""

    name = "einsum"

    # ------------------------------------------------------------------ #
    # fused gate stream
    # ------------------------------------------------------------------ #
    @staticmethod
    def _gate_stream(circuit: "ParameterizedCircuit", params: np.ndarray
                     ) -> Iterator[Tuple[np.ndarray, Tuple[int, ...]]]:
        """Yield ``(matrix, targets)`` with single-qubit fusion.

        A single-qubit gate is held back per wire and composed with later
        single-qubit gates on the same wire; it is flushed as one matrix
        when a multi-qubit gate touches the wire (or at the end of the
        circuit).  Deferral is safe because gates on disjoint wires commute.
        """
        pending: Dict[int, np.ndarray] = {}
        for op, matrix in circuit.op_matrices(params):
            if len(op.qubits) == 1:
                wire = op.qubits[0]
                held = pending.get(wire)
                # Later gate multiplies from the left: state -> M_new M_old.
                pending[wire] = matrix if held is None else matrix @ held
            else:
                for wire in op.qubits:
                    held = pending.pop(wire, None)
                    if held is not None:
                        yield held, (wire,)
                yield matrix, op.qubits
        for wire, held in pending.items():
            yield held, (wire,)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _owned_stack(self, states: np.ndarray) -> np.ndarray:
        """A fresh ``complex128`` :func:`empty_stack` copy of a
        ``(batch, 2**n)`` stack, which the kernel may update in place."""
        states = np.asarray(states)
        if states.ndim != 2:
            raise ValueError("states must have shape (batch, 2**n_qubits)")
        stack = empty_stack(*states.shape)
        stack[...] = states
        return stack

    def run_batched(self, circuit: "ParameterizedCircuit", states: np.ndarray,
                    params: Optional[np.ndarray] = None) -> np.ndarray:
        n = circuit.n_qubits
        if np.ndim(states) == 2 and np.shape(states)[1] != 2**n:
            raise ValueError(
                f"state length {np.shape(states)[1]} does not match {n} qubits")
        stack = self._owned_stack(states)
        batch = stack.shape[0]
        params = self._normalise_params(circuit, batch, params)
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.counter("backend.einsum.run_batched.calls").inc()
            telemetry.counter("backend.einsum.run_batched.samples").inc(batch)
            telemetry.gauge("backend.einsum.last_batch_size").set(batch)
        with telemetry.span("einsum.run_batched"):
            for matrix, targets in self._gate_stream(circuit, params):
                apply_gate_inplace(stack, matrix, targets, n)
            return np.ascontiguousarray(stack)

    def apply_gate_batched(self, states: np.ndarray, matrix: np.ndarray,
                           targets, n_qubits: int) -> np.ndarray:
        """Apply one gate matrix to a copy of the whole stack."""
        stack = self._owned_stack(states)
        apply_gate_inplace(stack, matrix, targets, n_qubits)
        return np.ascontiguousarray(stack)

    def apply_gate_batched_inplace(self, stack: np.ndarray, matrix: np.ndarray,
                                   targets, n_qubits: int) -> None:
        apply_gate_inplace(stack, matrix, targets, n_qubits)

    def run(self, circuit: "ParameterizedCircuit", state: np.ndarray,
            params: Optional[np.ndarray] = None) -> np.ndarray:
        state = self.validate_state(circuit, state)
        return self.run_batched(circuit, state[None, :], params)[0]

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
