"""The abstract simulation-backend interface.

A :class:`SimulationBackend` owns the execution of a
:class:`~repro.quantum.circuit.ParameterizedCircuit` on statevectors.  The
rest of the codebase (circuit ``run``, the adjoint differentiation, the
QuGeoVQC / QuBatchVQC models and every benchmark) talks to simulation only
through this interface, so alternative engines — vectorised NumPy, GPU,
sparse, remote hardware — can be swapped in via the registry in
:mod:`repro.backends.registry` without touching callers.

Conventions shared by all backends (see :mod:`repro.quantum.gates`):

* a state over ``n`` qubits is a complex vector of length ``2**n`` with
  qubit 0 as the most significant bit of the basis index;
* a batch of states is an array of shape ``(batch, 2**n)``;
* gate matrices order ``targets[0]`` as the most significant qubit of the
  gate's own index space (for controlled gates: ``(control, target)``).

The adjoint gradient (:func:`repro.quantum.autodiff.circuit_gradients_batched`)
needs only two calls: :meth:`SimulationBackend.run_batched` for the forward
pass and :meth:`SimulationBackend.apply_gate_batched_inplace` to pull the
stacked co-states and uncomputed states back through each ``U^dagger``.
The base class provides loop fallbacks for both, so one reversible sweep
serves every backend; vectorised engines override them to make it fast.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from repro.xm import get_array_module, get_dtype_policy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.quantum.circuit import ParameterizedCircuit
    from repro.xm import ArrayOps, DTypePolicy


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can do natively (callers may use these to pick paths).

    Attributes
    ----------
    batched_states:
        ``run_batched`` executes a whole stack of states in one vectorised
        pass instead of looping.
    batched_params:
        ``run_batched`` accepts a ``(batch, n_params)`` parameter matrix and
        evaluates a *different* parameter vector per state in the same pass
        (used to stack parameter-shift sweeps).
    gate_fusion:
        Adjacent single-qubit gates on the same wire are fused into one
        matrix before application.
    """

    batched_states: bool = False
    batched_params: bool = False
    gate_fusion: bool = False


class SimulationBackend(ABC):
    """Abstract statevector simulation engine.

    Concrete engines implement :meth:`run` (and usually override
    :meth:`run_batched` with something faster than the default loop) and
    register themselves under a string key with
    ``repro.backends.BACKENDS.register``.
    """

    #: Registry key and display name of the engine.
    name: str = "abstract"

    #: Capability flags; override in subclasses.
    capabilities: BackendCapabilities = BackendCapabilities()

    def __init__(self, xm: "ArrayOps" = None,
                 policy: "DTypePolicy" = None) -> None:
        """Bind the engine to an array module and a dtype policy.

        Both default to the ambient resolution (``QUGEO_ARRAY_MODULE`` /
        ``QUGEO_DTYPE`` environment variables, then ``numpy`` / ``float64``),
        which reproduces the historical hard-coded behaviour exactly.
        """
        self.xm = get_array_module(xm)
        self.policy = get_dtype_policy(policy)

    # ------------------------------------------------------------------ #
    # core execution
    # ------------------------------------------------------------------ #
    @abstractmethod
    def run(self, circuit: "ParameterizedCircuit", state: np.ndarray,
            params: Optional[np.ndarray] = None) -> np.ndarray:
        """Apply ``circuit`` to one statevector.

        Parameters
        ----------
        circuit:
            The gate program to execute.
        state:
            Input statevector of length ``2**circuit.n_qubits``.
        params:
            Flat parameter vector of length ``circuit.n_params`` (``None``
            means all-zero parameters).

        Returns
        -------
        numpy.ndarray
            The output statevector.
        """

    def run_batched(self, circuit: "ParameterizedCircuit", states: np.ndarray,
                    params: Optional[np.ndarray] = None) -> np.ndarray:
        """Apply ``circuit`` to a ``(batch, 2**n)`` stack of statevectors.

        ``params`` may be a shared ``(n_params,)`` vector or — when the
        backend advertises ``batched_params`` — a ``(batch, n_params)``
        matrix giving each state its own parameters.  The default
        implementation loops over :meth:`run`.
        """
        states = np.asarray(states, dtype=self.policy.complex)
        if states.ndim != 2:
            raise ValueError("states must have shape (batch, 2**n_qubits)")
        per_state_params = self._per_state_params(circuit, states.shape[0], params)
        return np.stack([self.run(circuit, state, p)
                         for state, p in zip(states, per_state_params)])

    def _per_state_params(self, circuit: "ParameterizedCircuit", batch: int,
                          params: Optional[np.ndarray]) -> List[Optional[np.ndarray]]:
        """Expand ``params`` into one parameter vector per batch entry."""
        if params is None:
            return [None] * batch
        params = np.asarray(params, dtype=np.float64)
        if params.ndim <= 1:
            return [params] * batch
        if params.ndim == 2:
            if params.shape[0] != batch:
                raise ValueError(
                    f"parameter batch {params.shape[0]} does not match "
                    f"state batch {batch}")
            return list(params)
        raise ValueError("params must be a vector or a (batch, n_params) matrix")

    # ------------------------------------------------------------------ #
    # shared input validation (one copy of the run() contract)
    # ------------------------------------------------------------------ #
    def validate_state(self, circuit: "ParameterizedCircuit",
                       state: np.ndarray) -> np.ndarray:
        """Coerce ``state`` to a flat complex vector of the register size.

        The vector is cast to the policy's complex compute dtype
        (``complex128`` by default, ``complex64`` under the float32 policy).
        """
        state = np.asarray(state, dtype=self.policy.complex).reshape(-1)
        if state.size != 2**circuit.n_qubits:
            raise ValueError(
                f"state length {state.size} does not match "
                f"{circuit.n_qubits} qubits")
        return state

    def validate_params(self, circuit: "ParameterizedCircuit",
                        params: Optional[np.ndarray]) -> np.ndarray:
        """Coerce ``params`` to a flat float vector (``None`` -> zeros).

        Parameters (gate angles) always stay in the accumulation precision:
        they are few, they parameterise trig evaluations, and gradients with
        respect to them are accumulated in float64 under every policy.
        """
        if params is None:
            return np.zeros(circuit.n_params, dtype=self.policy.accum_real)
        params = np.asarray(params, dtype=self.policy.accum_real).reshape(-1)
        if params.size != circuit.n_params:
            raise ValueError(
                f"expected {circuit.n_params} parameters, got {params.size}")
        return params

    # ------------------------------------------------------------------ #
    # primitives shared with the adjoint sweep
    # ------------------------------------------------------------------ #
    def apply_gate(self, state: np.ndarray, matrix: np.ndarray,
                   targets: Sequence[int], n_qubits: int) -> np.ndarray:
        """Apply one gate matrix to one statevector.

        The default delegates to the reference implementation in
        :mod:`repro.quantum.gates`.
        """
        from repro.quantum.gates import apply_matrix

        return apply_matrix(state, matrix, targets, n_qubits,
                            dtype=self.policy.complex)

    def apply_gate_batched(self, states: np.ndarray, matrix: np.ndarray,
                           targets: Sequence[int], n_qubits: int) -> np.ndarray:
        """Apply one gate matrix to a ``(batch, 2**n)`` state stack.

        The input stack is left untouched.  The default loops over
        :meth:`apply_gate`; vectorised engines override it with one pass
        over the whole stack.
        """
        states = np.asarray(states, dtype=self.policy.complex)
        if states.ndim != 2:
            raise ValueError("states must have shape (batch, 2**n_qubits)")
        return np.stack([self.apply_gate(state, matrix, targets, n_qubits)
                         for state in states])

    def apply_gate_batched_inplace(self, stack: np.ndarray, matrix: np.ndarray,
                                   targets: Sequence[int],
                                   n_qubits: int) -> None:
        """Apply one gate matrix to a ``(batch, 2**n)`` stack the caller owns,
        in place; the default writes :meth:`apply_gate_batched` back."""
        stack[...] = self.apply_gate_batched(stack, matrix, targets, n_qubits)

    # ------------------------------------------------------------------ #
    # measurement heads
    # ------------------------------------------------------------------ #
    def expectation(self, circuit: "ParameterizedCircuit", state: np.ndarray,
                    params: Optional[np.ndarray] = None,
                    qubits: Optional[Sequence[int]] = None) -> np.ndarray:
        """Pauli-Z expectations of ``qubits`` on the circuit's output state.

        ``qubits`` defaults to the full register.  This is the read-out used
        by the layer-wise (Q-M-LY) decoder.
        """
        from repro.quantum.measurement import z_expectations

        if qubits is None:
            qubits = tuple(range(circuit.n_qubits))
        output = self.run(circuit, state, params)
        return z_expectations(output, qubits, circuit.n_qubits)

    def expectation_batched(self, circuit: "ParameterizedCircuit",
                            states: np.ndarray,
                            params: Optional[np.ndarray] = None,
                            qubits: Optional[Sequence[int]] = None) -> np.ndarray:
        """Per-state Z expectations, shape ``(batch, len(qubits))``."""
        from repro.quantum.measurement import z_expectations

        if qubits is None:
            qubits = tuple(range(circuit.n_qubits))
        outputs = self.run_batched(circuit, states, params)
        return np.stack([z_expectations(out, qubits, circuit.n_qubits)
                         for out in outputs])

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
