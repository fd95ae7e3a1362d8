"""NumPy statevector quantum-computing substrate.

The paper implements QuGeoVQC on TorchQuantum; this package provides the
equivalent simulation stack from scratch:

* :mod:`repro.quantum.gates` — fixed gate matrices and statevector application,
* :mod:`repro.quantum.parametric` — parameterised gates (RX/RY/RZ/U3/CU3)
  with analytic parameter derivatives,
* :mod:`repro.quantum.statevector` — the :class:`Statevector` container,
* :mod:`repro.quantum.circuit` — :class:`ParameterizedCircuit` (an ordered
  gate program over a shared parameter vector),
* :mod:`repro.quantum.measurement` — Z expectations and marginal
  probabilities (the two decoder read-outs used by QuGeo),
* :mod:`repro.quantum.encoding` — amplitude / spatial-temporal ("ST")
  encoding and the QuBatch batched encoding,
* :mod:`repro.quantum.autodiff` — reverse-mode (adjoint) differentiation of
  scalar losses through a circuit, plus parameter-shift as a cross-check,
* :mod:`repro.quantum.ansatz` — the U3+CU3 block ansatz and grouped ST-VQC
  construction used by QuGeoVQC.
"""

from repro.quantum.statevector import Statevector
from repro.quantum.circuit import ParameterizedCircuit, GateOp
from repro.quantum.gates import GATES, apply_matrix
from repro.quantum.parametric import PARAMETRIC_GATES, u3_matrix, cu3_matrix
from repro.quantum.measurement import (
    z_expectations,
    z_expectations_batched,
    marginal_probabilities,
    marginal_probabilities_batched,
)
from repro.quantum.encoding import (
    amplitude_encode,
    STEncoder,
    QuBatchEncoder,
)
from repro.quantum.autodiff import (
    circuit_gradients,
    circuit_gradients_batched,
    parameter_shift_gradients,
)
from repro.quantum.ansatz import u3_cu3_ansatz, grouped_st_ansatz

__all__ = [
    "Statevector",
    "ParameterizedCircuit",
    "GateOp",
    "GATES",
    "apply_matrix",
    "PARAMETRIC_GATES",
    "u3_matrix",
    "cu3_matrix",
    "z_expectations",
    "z_expectations_batched",
    "marginal_probabilities",
    "marginal_probabilities_batched",
    "amplitude_encode",
    "STEncoder",
    "QuBatchEncoder",
    "circuit_gradients",
    "circuit_gradients_batched",
    "parameter_shift_gradients",
    "u3_cu3_ansatz",
    "grouped_st_ansatz",
]
