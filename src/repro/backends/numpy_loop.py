"""The reference oracle: one gate, one statevector at a time.

:class:`NumpyLoopBackend` is a Python loop over the circuit's ops calling
:func:`repro.quantum.gates.apply_matrix`, sharing no gate-application code
with the default ``einsum`` engine.  It is the ground truth the vectorised
engines are tested against, and ``QUGEO_BACKEND=numpy`` runs the whole
stack on it.  The adjoint gradient runs here through the base-class loop
fallbacks of ``run_batched`` and ``apply_gate_batched_inplace``: the same
reversible sweep as on every other engine, one statevector at a time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.backends.base import BackendCapabilities, SimulationBackend
from repro.quantum.gates import apply_matrix

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.quantum.circuit import ParameterizedCircuit


class NumpyLoopBackend(SimulationBackend):
    """Sequential per-gate NumPy statevector simulation (reference oracle)."""

    name = "numpy"
    capabilities = BackendCapabilities(batched_states=False,
                                       batched_params=False,
                                       gate_fusion=False)

    def run(self, circuit: "ParameterizedCircuit", state: np.ndarray,
            params: Optional[np.ndarray] = None) -> np.ndarray:
        current = self.validate_state(circuit, state)
        params = self.validate_params(circuit, params)
        for op in circuit.ops:
            matrix = circuit.op_matrix(op, params)
            current = apply_matrix(current, matrix, op.qubits, circuit.n_qubits,
                                   dtype=self.policy.complex)
        return current
