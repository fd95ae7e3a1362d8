"""Vectorised batched-statevector engine.

:class:`EinsumBatchBackend` keeps a leading batch axis on the state tensor
(``(batch,) + (2,) * n_qubits``) and applies every gate to the *whole* batch
with one cached :func:`numpy.einsum` contraction, so a QuBatch mini-batch or
a stacked parameter-shift sweep executes as a handful of BLAS-sized
contractions instead of a Python loop over samples and gates.

Three optimisations on top of the plain batched contraction:

* **cached einsum subscripts** — the contraction string for a gate depends
  only on ``(n_qubits, targets, gate_batched)`` and is memoised, so the
  per-call cost is the contraction itself;
* **single-qubit gate fusion** — adjacent single-qubit gates on the same
  wire (with no intervening op touching that wire) are multiplied into one
  2x2 matrix before application, halving the number of full-state passes
  for rotation chains;
* **memoised fixed-gate tensors** — the ``(2,) * 2k`` tensor forms of the
  fixed gates (H, CNOT, CZ, SWAP, ...) are built once per engine, and
  batched parameter sweeps build each gate's ``(batch, 2**k, 2**k)`` matrix
  stack without a Python loop via
  :meth:`repro.quantum.parametric.ParametricGate.matrix_stack`.

This is the registry default.  Training runs the reversible adjoint sweep
of :func:`repro.quantum.autodiff.circuit_gradients_batched` on it: one fused
:meth:`EinsumBatchBackend.run_batched` forward, then one
:meth:`EinsumBatchBackend.apply_gate_batched` contraction per op that pulls
the stacked co-states and uncomputed states of the whole mini-batch through
``U^dagger``.
"""

from __future__ import annotations

import string
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.backends.base import BackendCapabilities, SimulationBackend
from repro.quantum.gates import GATES
from repro.quantum.parametric import PARAMETRIC_GATES
from repro.telemetry import get_telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.quantum.circuit import GateOp, ParameterizedCircuit

_LETTERS = string.ascii_lowercase + string.ascii_uppercase


@lru_cache(maxsize=None)
def _apply_subscripts(n_qubits: int, targets: Tuple[int, ...],
                      gate_batched: bool) -> str:
    """Einsum subscripts applying a ``k``-qubit gate to a batched state.

    The state operand is ``(batch,) + (2,) * n_qubits``; the gate operand is
    ``(2,) * 2k`` (or with a leading batch axis when ``gate_batched``).
    """
    # Body only runs on a cache miss; paired with the request counter at the
    # call site this yields the subscript-cache hit ratio for free.
    get_telemetry().counter("backend.einsum.subscripts.misses").inc()
    k = len(targets)
    needed = n_qubits + k + 1
    if needed > len(_LETTERS):
        raise ValueError(
            f"register of {n_qubits} qubits with a {k}-qubit gate exceeds "
            f"the einsum index budget")
    state = list(_LETTERS[:n_qubits])
    out = list(_LETTERS[n_qubits:n_qubits + k])
    batch = _LETTERS[n_qubits + k]
    gate = "".join(out) + "".join(state[t] for t in targets)
    if gate_batched:
        gate = batch + gate
    new_state = list(state)
    for letter, target in zip(out, targets):
        new_state[target] = letter
    return f"{gate},{batch}{''.join(state)}->{batch}{''.join(new_state)}"


class EinsumBatchBackend(SimulationBackend):
    """Batched statevector simulation via cached einsum contractions."""

    name = "einsum"
    capabilities = BackendCapabilities(batched_states=True,
                                       batched_params=True,
                                       gate_fusion=True)

    #: State tensors with at least this many elements route through a
    #: precomputed BLAS-dispatching contraction path; smaller ones stay on
    #: the plain C einsum kernel, whose per-call overhead is lower.
    path_threshold: int = 1 << 13

    def __init__(self, fuse_single_qubit_gates: bool = True,
                 xm=None, policy=None) -> None:
        super().__init__(xm=xm, policy=policy)
        self.fuse_single_qubit_gates = bool(fuse_single_qubit_gates)
        self._fixed_tensors: Dict[Tuple[str, str], np.ndarray] = {}
        self._paths: Dict[Tuple[str, Tuple[int, ...], Tuple[int, ...]], list] = {}
        self._telemetry = get_telemetry()

    # ------------------------------------------------------------------ #
    # gate material
    # ------------------------------------------------------------------ #
    def _fixed_tensor(self, name: str):
        """Memoised ``(2,) * 2k`` tensor form of a fixed gate.

        Cached per ``(gate name, complex dtype)`` so a policy change on the
        instance can never serve a tensor of the wrong precision, and stored
        as the array module's native type (device-resident on GPU modules).
        """
        dtype = self.policy.complex
        key = (name, dtype.str)
        tensor = self._fixed_tensors.get(key)
        if tensor is None:
            if self._telemetry.enabled:
                self._telemetry.counter(
                    "backend.einsum.gate_tensors.misses").inc()
            matrix = GATES[name]
            k = int(np.log2(matrix.shape[0]))
            host = np.ascontiguousarray(
                matrix.reshape((2,) * (2 * k)).astype(dtype, copy=False))
            tensor = self.xm.asarray(host, dtype=dtype)
            if isinstance(tensor, np.ndarray):
                tensor.setflags(write=False)
            self._fixed_tensors[key] = tensor
        elif self._telemetry.enabled:
            self._telemetry.counter("backend.einsum.gate_tensors.hits").inc()
        return tensor

    def _op_matrix(self, op: "GateOp", params: np.ndarray,
                   params_batched: bool) -> Tuple[np.ndarray, bool]:
        """Gate material for one op as ``(matrix, batched)``.

        ``matrix`` is a native ``(2**k, 2**k)`` matrix, its ``(2,) * 2k``
        tensor form (fixed gates, memoised) or a ``(batch, 2**k, 2**k)``
        stack; :meth:`_apply_batched` reshapes uniformly.
        """
        if not op.is_parametric:
            return self._fixed_tensor(op.name), False
        if params_batched:
            columns = tuple(params[:, i] for i in op.param_indices)
            stack = PARAMETRIC_GATES[op.name].matrix_stack(columns)
            return self.xm.asarray(stack, dtype=self.policy.complex), True
        gate_params = [float(params[i]) for i in op.param_indices]
        matrix = PARAMETRIC_GATES[op.name].matrix(gate_params)
        return self.xm.asarray(matrix, dtype=self.policy.complex), False

    # ------------------------------------------------------------------ #
    # fused gate stream
    # ------------------------------------------------------------------ #
    def _gate_stream(self, circuit: "ParameterizedCircuit", params: np.ndarray,
                     params_batched: bool
                     ) -> Iterator[Tuple[np.ndarray, Tuple[int, ...], bool]]:
        """Yield ``(matrix, targets, batched)`` with single-qubit fusion.

        A single-qubit gate is held back per wire and composed with later
        single-qubit gates on the same wire; it is flushed as one matrix
        when a multi-qubit gate touches the wire (or at the end of the
        circuit).  Deferral is safe because gates on disjoint wires commute.
        """
        if not self.fuse_single_qubit_gates:
            for op in circuit.ops:
                matrix, batched = self._op_matrix(op, params, params_batched)
                yield matrix, op.qubits, batched
            return
        pending: Dict[int, Tuple[np.ndarray, bool]] = {}
        order: List[int] = []
        for op in circuit.ops:
            matrix, batched = self._op_matrix(op, params, params_batched)
            if len(op.qubits) == 1:
                wire = op.qubits[0]
                held = pending.get(wire)
                if held is None:
                    pending[wire] = (matrix, batched)
                    order.append(wire)
                else:
                    # Later gate multiplies from the left: state -> M_new M_old.
                    pending[wire] = (matrix @ held[0], batched or held[1])
            else:
                for wire in op.qubits:
                    held = pending.pop(wire, None)
                    if held is not None:
                        order.remove(wire)
                        yield held[0], (wire,), held[1]
                yield matrix, op.qubits, batched
        for wire in order:
            held = pending[wire]
            yield held[0], (wire,), held[1]

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _apply_batched(self, tensor: np.ndarray, matrix: np.ndarray,
                       targets: Tuple[int, ...], n_qubits: int,
                       gate_batched: bool) -> np.ndarray:
        """One einsum contraction over the whole batch (native arrays)."""
        k = len(targets)
        gate_shape = ((matrix.shape[0],) if gate_batched else ()) + (2,) * (2 * k)
        gate = self.xm.reshape(matrix, gate_shape)
        if self._telemetry.enabled:
            self._telemetry.counter("backend.einsum.subscripts.requests").inc()
        subscripts = _apply_subscripts(n_qubits, tuple(targets), gate_batched)
        if (self.xm.supports_einsum_path
                and self.xm.size(tensor) >= self.path_threshold):
            # The optimize= contraction-path cache is a host-NumPy-only fast
            # path: the guard above required supports_einsum_path, and the
            # generic branch below stays on the xm waist.
            return np.einsum(subscripts, gate, tensor,  # qugeo-lint: disable=QG003 -- host-numpy fast path by design
                             optimize=self._contraction_path(
                                 subscripts, gate, tensor))
        return self.xm.einsum(subscripts, gate, tensor)

    def _contraction_path(self, subscripts: str, gate: np.ndarray,
                          tensor: np.ndarray) -> list:
        """Memoised ``einsum_path`` so the path search is paid once per shape.

        On large state tensors the optimised executor dispatches the
        contraction to BLAS (``tensordot``), which is several times faster
        than the plain C einsum kernel for middle-axis targets.
        """
        key = (subscripts, gate.shape, tensor.shape)
        path = self._paths.get(key)
        if path is None:
            path = np.einsum_path(subscripts, gate, tensor,
                                  optimize="optimal")[0]
            self._paths[key] = path
        return path

    def run_batched(self, circuit: "ParameterizedCircuit", states: np.ndarray,
                    params: Optional[np.ndarray] = None) -> np.ndarray:
        host_states = np.asarray(states)
        if host_states.ndim != 2:
            raise ValueError("states must have shape (batch, 2**n_qubits)")
        n = circuit.n_qubits
        if host_states.shape[1] != 2**n:
            raise ValueError(
                f"state length {host_states.shape[1]} does not match {n} qubits")
        batch = host_states.shape[0]
        states = self.xm.asarray(host_states, dtype=self.policy.complex)
        params, params_batched = self._normalise_params(circuit, batch, params)
        telemetry = self._telemetry
        if telemetry.enabled:
            telemetry.counter("backend.einsum.run_batched.calls").inc()
            telemetry.counter("backend.einsum.run_batched.samples").inc(batch)
            telemetry.gauge("backend.einsum.last_batch_size").set(batch)
        tensor = self.xm.reshape(states, (batch,) + (2,) * n)
        with telemetry.span("einsum.run_batched"):
            for matrix, targets, batched in self._gate_stream(circuit, params,
                                                              params_batched):
                tensor = self._apply_batched(tensor, matrix, targets, n,
                                             batched)
            out = self.xm.to_numpy(self.xm.reshape(tensor, (batch, -1)))
            return np.ascontiguousarray(out)

    def apply_gate_batched(self, states: np.ndarray, matrix: np.ndarray,
                           targets, n_qubits: int) -> np.ndarray:
        """Apply one gate matrix to the whole stack with one contraction."""
        host_states = np.asarray(states)
        if host_states.ndim != 2:
            raise ValueError("states must have shape (batch, 2**n_qubits)")
        batch = host_states.shape[0]
        states = self.xm.asarray(host_states, dtype=self.policy.complex)
        tensor = self.xm.reshape(states, (batch,) + (2,) * n_qubits)
        matrix = self.xm.asarray(matrix, dtype=self.policy.complex)
        out = self._apply_batched(tensor, matrix, tuple(targets), n_qubits,
                                  False)
        return self.xm.to_numpy(self.xm.reshape(out, (batch, -1)))

    def run(self, circuit: "ParameterizedCircuit", state: np.ndarray,
            params: Optional[np.ndarray] = None) -> np.ndarray:
        state = self.validate_state(circuit, state)
        return self.run_batched(circuit, state[None, :], params)[0]

    def _normalise_params(self, circuit: "ParameterizedCircuit", batch: int,
                          params: Optional[np.ndarray]
                          ) -> Tuple[np.ndarray, bool]:
        """Validate params and report whether they vary across the batch."""
        if params is None or np.ndim(params) <= 1:
            return self.validate_params(circuit, params), False
        params = np.asarray(params, dtype=self.policy.accum_real)
        if params.ndim == 2:
            if params.shape[1] != circuit.n_params:
                raise ValueError(
                    f"expected {circuit.n_params} parameters per row, got "
                    f"{params.shape[1]}")
            if params.shape[0] != batch:
                raise ValueError(
                    f"parameter batch {params.shape[0]} does not match state "
                    f"batch {batch}")
            return params, True
        raise ValueError("params must be a vector or a (batch, n_params) matrix")

    # ------------------------------------------------------------------ #
    # measurement heads (vectorised)
    # ------------------------------------------------------------------ #
    def expectation_batched(self, circuit: "ParameterizedCircuit",
                            states: np.ndarray,
                            params: Optional[np.ndarray] = None,
                            qubits: Optional[Tuple[int, ...]] = None
                            ) -> np.ndarray:
        n = circuit.n_qubits
        if qubits is None:
            qubits = tuple(range(n))
        outputs = self.run_batched(circuit, states, params)
        probs = np.abs(outputs) ** 2
        indices = np.arange(2**n)
        values = np.empty((outputs.shape[0], len(qubits)))
        for column, qubit in enumerate(qubits):
            if not 0 <= qubit < n:
                raise ValueError(f"qubit {qubit} outside register")
            signs = 1.0 - 2.0 * ((indices >> (n - 1 - qubit)) & 1)
            values[:, column] = probs @ signs
        return values
