"""The abstract simulation-backend interface.

A :class:`SimulationBackend` owns the execution of a
:class:`~repro.quantum.circuit.ParameterizedCircuit` on statevectors.  The
rest of the codebase (circuit ``run``, the adjoint differentiation, the
QuGeoVQC / QuBatchVQC models and every benchmark) talks to simulation only
through this interface.  Two engines implement it: the vectorised
:class:`~repro.backends.einsum_batch.EinsumBatchBackend`, which runs by
default, and the per-gate reference oracle
:class:`~repro.backends.numpy_loop.NumpyLoopBackend`, which tests pass in
as an instance.

Conventions shared by all backends (see :mod:`repro.quantum.gates`):

* a state over ``n`` qubits is a complex vector of length ``2**n`` with
  qubit 0 as the most significant bit of the basis index;
* a batch of states is an array of shape ``(batch, 2**n)``;
* gate matrices order ``targets[0]`` as the most significant qubit of the
  gate's own index space (for controlled gates: ``(control, target)``).

The adjoint gradient (:func:`repro.quantum.autodiff.circuit_gradients_batched`)
needs only two calls: :meth:`SimulationBackend.run_batched` for the forward
pass and :meth:`SimulationBackend.backward_sweep` for the reversible
backward pass.  The base class provides loop fallbacks for both: the
default sweep pulls the stacked co-states and uncomputed states back
through each ``U^dagger`` with :meth:`apply_gate_batched_inplace`.  The
default engine overrides all three with its compiled kernels.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.quantum.circuit import ParameterizedCircuit


class SimulationBackend(ABC):
    """Abstract statevector simulation engine.

    Concrete engines implement :meth:`run` and usually override
    :meth:`run_batched` with something faster than the default loop.
    """

    #: Display name of the engine (telemetry and run records).
    name: str = "abstract"

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

        ``params`` may be a shared ``(n_params,)`` vector or a
        ``(batch, n_params)`` matrix giving each state its own parameters.
        The default implementation loops over :meth:`run`.
        """
        states = np.asarray(states, dtype=np.complex128)
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
        """Coerce ``state`` to a flat ``complex128`` vector of the register
        size."""
        state = np.asarray(state, dtype=np.complex128).reshape(-1)
        if state.size != 2**circuit.n_qubits:
            raise ValueError(
                f"state length {state.size} does not match "
                f"{circuit.n_qubits} qubits")
        return state

    def validate_params(self, circuit: "ParameterizedCircuit",
                        params: Optional[np.ndarray]) -> np.ndarray:
        """Coerce ``params`` to a flat float64 vector (``None`` -> zeros)."""
        if params is None:
            return np.zeros(circuit.n_params, dtype=np.float64)
        params = np.asarray(params, dtype=np.float64).reshape(-1)
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

        return apply_matrix(state, matrix, targets, n_qubits)

    def apply_gate_batched(self, states: np.ndarray, matrix: np.ndarray,
                           targets: Sequence[int], n_qubits: int) -> np.ndarray:
        """Apply one gate matrix to a ``(batch, 2**n)`` state stack.

        The input stack is left untouched.  The default loops over
        :meth:`apply_gate`; vectorised engines override it with one pass
        over the whole stack.
        """
        states = np.asarray(states, dtype=np.complex128)
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

    def backward_sweep(self, circuit: "ParameterizedCircuit",
                       params: np.ndarray, lams: np.ndarray,
                       outputs: np.ndarray, grads: np.ndarray) -> None:
        """Add the adjoint gradients of a batch into ``grads`` in place.

        ``lams`` and ``outputs`` are the ``(batch, 2**n)`` co-states and
        output states and ``grads`` the ``(batch, n_params)`` buffer.  The
        default is the generic reversible sweep of
        :mod:`repro.quantum.autodiff`, one :meth:`apply_gate_batched_inplace`
        per op.
        """
        from repro.quantum.autodiff import _reversible_backward_sweep

        _reversible_backward_sweep(self, circuit, params, lams, outputs, grads)

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
