"""Parameterised circuit programs.

A :class:`ParameterizedCircuit` is an ordered list of :class:`GateOp`
entries.  Each op is either a fixed gate (``"H"``, ``"CNOT"``, ``"SWAP"`` ...)
or a parameterised gate (``"U3"``, ``"CU3"`` ...) whose parameters are slices
of one shared parameter vector.  Sharing a single flat vector keeps the
optimiser interface identical to the classical models and makes the adjoint
gradient computation in :mod:`repro.quantum.autodiff` straightforward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.quantum.gates import GATES
from repro.quantum.parametric import PARAMETRIC_GATES, ParametricGate

# Most gate matrices built at once (ops times parameter rows): the tables
# of :meth:`ParameterizedCircuit.op_matrices` and the adjoint sweep then stay
# O(window) instead of growing with circuit depth.  Each window costs a few
# numpy calls per gate family, which a single-state predict notices.
GATE_TABLE_WINDOW = 256


@dataclass(frozen=True)
class GateOp:
    """One gate application inside a circuit.

    Attributes
    ----------
    name:
        Gate name; either a key of :data:`repro.quantum.gates.GATES` or of
        :data:`repro.quantum.parametric.PARAMETRIC_GATES`.
    qubits:
        Target qubit indices (for controlled gates: ``(control, target)``).
    param_indices:
        Indices into the circuit's flat parameter vector, empty for fixed
        gates.
    """

    name: str
    qubits: Tuple[int, ...]
    param_indices: Tuple[int, ...] = ()

    @property
    def is_parametric(self) -> bool:
        return bool(self.param_indices)


class ParameterizedCircuit:
    """An ordered gate program over ``n_qubits`` and a flat parameter vector."""

    def __init__(self, n_qubits: int) -> None:
        if n_qubits <= 0:
            raise ValueError("n_qubits must be positive")
        self.n_qubits = int(n_qubits)
        self.ops: List[GateOp] = []
        self._n_params = 0

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @property
    def n_params(self) -> int:
        """Number of trainable parameters referenced by the circuit."""
        return self._n_params

    def _validate_qubits(self, qubits: Sequence[int], expected: int, name: str) -> Tuple[int, ...]:
        qubits = tuple(int(q) for q in qubits)
        if len(qubits) != expected:
            raise ValueError(f"{name} acts on {expected} qubit(s), got {qubits}")
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"duplicate qubits in {qubits}")
        for q in qubits:
            if not 0 <= q < self.n_qubits:
                raise ValueError(f"qubit {q} outside register of {self.n_qubits}")
        return qubits

    def add_gate(self, name: str, qubits: Sequence[int]) -> "ParameterizedCircuit":
        """Append a fixed (non-parameterised) gate."""
        if name not in GATES:
            raise ValueError(f"unknown fixed gate {name!r}")
        matrix = GATES[name]
        expected = int(np.log2(matrix.shape[0]))
        qubits = self._validate_qubits(qubits, expected, name)
        self.ops.append(GateOp(name=name, qubits=qubits))
        return self

    def add_parametric_gate(self, name: str, qubits: Sequence[int],
                            param_indices: Optional[Sequence[int]] = None
                            ) -> "ParameterizedCircuit":
        """Append a parameterised gate.

        If ``param_indices`` is omitted, fresh parameter slots are allocated
        at the end of the parameter vector (the usual case); passing explicit
        indices allows parameter sharing between gates.
        """
        if name not in PARAMETRIC_GATES:
            raise ValueError(f"unknown parametric gate {name!r}")
        spec = PARAMETRIC_GATES[name]
        qubits = self._validate_qubits(qubits, spec.n_qubits, name)
        if param_indices is None:
            param_indices = tuple(range(self._n_params, self._n_params + spec.n_params))
            self._n_params += spec.n_params
        else:
            param_indices = tuple(int(i) for i in param_indices)
            if len(param_indices) != spec.n_params:
                raise ValueError(f"{name} needs {spec.n_params} parameters")
            if param_indices:
                self._n_params = max(self._n_params, max(param_indices) + 1)
        self.ops.append(GateOp(name=name, qubits=qubits, param_indices=param_indices))
        return self

    def extend(self, other: "ParameterizedCircuit") -> "ParameterizedCircuit":
        """Append every op of ``other`` (parameters are re-indexed after ours)."""
        if other.n_qubits != self.n_qubits:
            raise ValueError("circuits act on different register sizes")
        offset = self._n_params
        for op in other.ops:
            shifted = tuple(i + offset for i in op.param_indices)
            self.ops.append(GateOp(op.name, op.qubits, shifted))
        self._n_params += other.n_params
        return self

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def op_matrix(self, op: GateOp, params: np.ndarray) -> np.ndarray:
        """Return the unitary of ``op`` for the given parameter vector."""
        if op.is_parametric:
            gate_params = [float(params[i]) for i in op.param_indices]
            return PARAMETRIC_GATES[op.name].matrix(gate_params)
        return GATES[op.name]

    def gate_families(self, params: np.ndarray,
                      indices: Optional[Sequence[int]] = None
                      ) -> Iterator[Tuple[ParametricGate, List[int],
                                          Tuple[np.ndarray, ...]]]:
        """``(gate, op indices, parameter columns)`` per parametric family.

        ``indices`` restricts the grouping to those ops (all by default).
        ``params`` is a flat vector or a ``(batch, n_params)`` matrix; each
        column then has shape ``(n_members,)`` or ``(batch, n_members)``,
        ready for ``matrix_stack``/``derivative_stack``.
        """
        families: Dict[str, List[int]] = {}
        for index in range(len(self.ops)) if indices is None else indices:
            if self.ops[index].is_parametric:
                families.setdefault(self.ops[index].name, []).append(index)
        params = np.asarray(params)
        for name, members in families.items():
            slots = np.array([self.ops[i].param_indices for i in members])
            columns = np.moveaxis(params[..., slots], -1, 0)
            yield PARAMETRIC_GATES[name], members, tuple(columns)

    def op_matrices(self, params: np.ndarray
                    ) -> Iterator[Tuple[GateOp, np.ndarray]]:
        """Every op with its unitary, in circuit order.

        The parametric matrices of a window of ops come from one constructor
        call per gate family.  A window holds at most
        :data:`GATE_TABLE_WINDOW` matrices (ops times parameter rows), so
        the tables stay bounded however deep the circuit and however tall a
        ``(batch, n_params)`` parameter matrix is; the parametric entries
        are then ``(batch, 2**k, 2**k)`` stacks.
        """
        params = np.asarray(params)
        rows = params.shape[0] if params.ndim == 2 else 1
        step = max(1, GATE_TABLE_WINDOW // rows)
        for start in range(0, len(self.ops), step):
            window = range(start, min(start + step, len(self.ops)))
            tables = {}
            for gate, members, columns in self.gate_families(params, window):
                table = gate.matrix_stack(columns)
                tables.update(zip(members, np.moveaxis(table, -3, 0)))
            for index in window:
                op = self.ops[index]
                yield op, tables[index] if op.is_parametric else GATES[op.name]

    def run(self, state: np.ndarray, params: Optional[np.ndarray] = None,
            backend=None) -> np.ndarray:
        """Apply the full circuit to ``state``.

        Parameters
        ----------
        state:
            Input statevector of length ``2**n_qubits``.
        params:
            Flat parameter vector of length :attr:`n_params`.
        backend:
            A :class:`~repro.backends.base.SimulationBackend` instance, or
            ``None`` for the default engine (see :mod:`repro.backends`).

        Returns
        -------
        numpy.ndarray
            The output statevector.
        """
        # Imported lazily: repro.backends pulls in the gate modules of this
        # package, so a module-level import would be circular.  Input
        # validation lives in SimulationBackend.validate_state/params.
        from repro.backends import get_backend

        return get_backend(backend).run(self, state, params)

    def run_batched(self, states: np.ndarray,
                    params: Optional[np.ndarray] = None,
                    backend=None) -> np.ndarray:
        """Apply the circuit to a ``(batch, 2**n_qubits)`` stack of states.

        ``params`` is a shared vector or a ``(batch, n_params)`` matrix.
        The default engine updates the whole stack gate by gate; the
        :class:`~repro.backends.NumpyLoopBackend` oracle loops over the
        states.
        """
        from repro.backends import get_backend

        return get_backend(backend).run_batched(self, states, params)

    def depth_estimate(self) -> int:
        """Greedy depth estimate: gates on disjoint qubits share a layer."""
        layers: List[set] = []
        for op in self.ops:
            placed = False
            for layer in reversed(layers):
                if layer & set(op.qubits):
                    break
                placed = False
            # Greedy: place in the last layer that does not conflict,
            # scanning from the end.
            index = len(layers)
            while index > 0 and not (layers[index - 1] & set(op.qubits)):
                index -= 1
            if index == len(layers):
                layers.append(set(op.qubits))
            else:
                layers[index] |= set(op.qubits)
                placed = True
            del placed
        return len(layers)

    def __len__(self) -> int:
        return len(self.ops)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ParameterizedCircuit(n_qubits={self.n_qubits}, "
                f"n_ops={len(self.ops)}, n_params={self.n_params})")
