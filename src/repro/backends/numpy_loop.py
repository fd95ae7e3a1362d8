"""The reference oracle: one gate, one statevector at a time.

:class:`NumpyLoopBackend` is a Python loop over the circuit's ops calling
:func:`repro.quantum.gates.apply_matrix`, sharing no gate-application code
with the default ``einsum`` engine.  It is the ground truth the vectorised
engine is tested against: tests pass ``NumpyLoopBackend()`` to a model or
a circuit as its ``backend``.  The adjoint gradient runs here through the
base-class loop fallbacks of ``run_batched`` and ``backward_sweep``: the
generic numpy reversible sweep, one statevector at a time per gate.  The
default engine also falls back to this class where its C library cannot
be built.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.backends.base import SimulationBackend
from repro.quantum.gates import apply_matrix

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.quantum.circuit import ParameterizedCircuit


class NumpyLoopBackend(SimulationBackend):
    """Sequential per-gate NumPy statevector simulation (reference oracle)."""

    name = "numpy"

    def run(self, circuit: "ParameterizedCircuit", state: np.ndarray,
            params: Optional[np.ndarray] = None) -> np.ndarray:
        current = self.validate_state(circuit, state)
        params = self.validate_params(circuit, params)
        for op in circuit.ops:
            matrix = circuit.op_matrix(op, params)
            current = apply_matrix(current, matrix, op.qubits, circuit.n_qubits)
        return current
