"""The statevector engine's C kernels: build gate streams, check, call.

``statevector.c`` (next to this module) holds two entry points on the
batch-innermost ``(2**n, cols)`` stack of
:func:`~repro.quantum.kernel.empty_stack`:

* ``qugeo_apply`` applies a gate stream in place.  A gate is a 2x2 matrix
  on a target, the control=1 block of a controlled 4x4 gate (one that
  :func:`~repro.quantum.kernel.control_block` recognises: CU3, CRX, CNOT,
  CZ), or a dense 4x4 matrix (SWAP), shared by the batch or given per row
  as with a ``(batch, n_params)`` parameter matrix.  :func:`forward` makes
  one call per window of :data:`GATE_TABLE_WINDOW` gate matrices (the
  whole paper circuit for a shared parameter vector), and
  :func:`apply_gate` one call for one gate.
* ``qugeo_sweep`` runs one window of the reversible adjoint sweep of
  :func:`repro.quantum.autodiff.circuit_gradients_batched` over the stacked
  co-states and states: per parametric op it adds the reduced overlap on
  the gate's targets, then applies ``U^dagger`` to both halves in the same
  pass.  :func:`sweep` contracts the window's overlaps with the
  ``dU U^dagger`` weights of :func:`~repro.quantum.autodiff._sweep_tables`
  in one ``matmul`` and adds them into the gradients with one scatter.

A window's gate records (kinds, qubits, matrix offsets, parametric
positions and parameter slots) are built per gate family with numpy, not
per op, and checked before any C code runs.  The engine imports this module
on its first call, and :func:`load_library` compiles the library then
(:func:`repro.utils.native.load`); importing the package does neither.
"""

from __future__ import annotations

import ctypes
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.quantum.autodiff import _SWEEP_WINDOW, _sweep_tables
from repro.quantum.circuit import GATE_TABLE_WINDOW
from repro.quantum.gates import GATES
from repro.quantum.kernel import control_block, empty_stack
from repro.utils import native

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.quantum.circuit import ParameterizedCircuit

_SOURCE = Path(__file__).with_name("statevector.c")

#: Gate kinds and record fields, as ``statevector.c`` documents them.
ONE, CONTROLLED, DENSE = 0, 1, 2
KIND, QA, QB, OFFSET, PER_ROW, OVERLAP = range(6)


def _entry_points():
    """The ``ctypes`` signatures of the two entry points and of
    ``qugeo_isa``, the name of the SIMD copy they run.  ctypes refuses an
    array of the wrong dtype or rank, or a strided one."""
    c128 = np.ctypeslib.ndpointer(np.complex128, flags="C_CONTIGUOUS")
    records = np.ctypeslib.ndpointer(np.int64, ndim=2, flags="C_CONTIGUOUS")
    i64 = ctypes.c_int64
    return {
        "qugeo_apply": ([c128, i64, i64, records, i64, c128], ctypes.c_int),
        "qugeo_sweep": ([c128, i64, i64, records, i64, c128, c128, i64, i64],
                        ctypes.c_int),
        "qugeo_isa": ([], ctypes.c_char_p),
    }


def load_library():
    """The compiled kernels (a ``ctypes.CDLL``), or ``None`` (warning once)
    if they are unavailable."""
    return native.load(
        _SOURCE, _entry_points, span="backend.compile",
        fallback="running the per-state oracle NumpyLoopBackend instead, "
                 "which gives the same states many times slower")


def _gate_form(matrix: np.ndarray) -> Tuple[int, np.ndarray]:
    """``(kind, matrices)`` of a gate matrix or ``(..., d, d)`` stack: the
    2x2 block of a controlled gate, else the matrix itself."""
    if matrix.shape[-1] == 2:
        return ONE, matrix
    block = control_block(matrix)
    return (DENSE, matrix) if block is None else (CONTROLLED, block)


#: ``(kind, matrix)`` of every fixed gate and of its inverse.
_FIXED = {name: _gate_form(matrix) for name, matrix in GATES.items()}
_FIXED_DAGGER = {name: _gate_form(np.ascontiguousarray(matrix.conj().T))
                 for name, matrix in GATES.items()}


class _Stream:
    """Gate records and their matrix buffer, one record per gate."""

    def __init__(self, qubits: Sequence[Tuple[int, ...]]) -> None:
        self.records = np.zeros((len(qubits), 6), dtype=np.int64)
        self.records[:, OVERLAP] = -1
        if qubits:
            self.records[:, QA:QB + 1] = [(q[0], q[-1]) for q in qubits]
        self.pieces: List[np.ndarray] = []
        self.size = 0

    @classmethod
    def of_window(cls, circuit: "ParameterizedCircuit", window: range,
                  fixed: Dict[str, Tuple[int, np.ndarray]]) -> "_Stream":
        """The ops of ``window``, the fixed ones with their ``fixed`` form
        and the parametric ones still to be placed."""
        ops = circuit.ops[window.start:window.stop]
        stream = cls([op.qubits for op in ops])
        groups: Dict[str, List[int]] = {}
        for position, op in enumerate(ops):
            if not op.is_parametric:
                groups.setdefault(op.name, []).append(position)
        for name, positions in groups.items():
            stream.place(positions, *fixed[name], per_row=False)
        return stream

    def place(self, positions, kind: int, matrices: np.ndarray,
              per_row: bool) -> None:
        """Append ``matrices`` for the gates at ``positions``.

        ``matrices`` is one matrix for them all, one per gate ``(m, d, d)``,
        or with ``per_row`` one per gate and row ``(m, d, d, rows)``.
        """
        step = 0 if matrices.ndim == 2 else matrices[0].size
        self.records[positions, KIND] = kind
        self.records[positions, OFFSET] = (self.size
                                           + step * np.arange(len(positions)))
        self.records[positions, PER_ROW] = per_row
        self.pieces.append(np.ascontiguousarray(matrices).reshape(-1))
        self.size += matrices.size

    def matrices(self) -> np.ndarray:
        if not self.pieces:
            return np.zeros(1, dtype=np.complex128)
        return np.concatenate(self.pieces)


def _forward_stream(circuit: "ParameterizedCircuit", params: np.ndarray,
                    window: range) -> _Stream:
    """The window's ops with their unitaries, one constructor call per
    gate family; a ``(rows, n_params)`` ``params`` gives per-row matrices."""
    stream = _Stream.of_window(circuit, window, _FIXED)
    per_row = params.ndim == 2
    for gate, members, _, columns in circuit.gate_families(params, window):
        kind, matrices = _gate_form(gate.matrix_stack(columns))
        if per_row:  # (rows, m, d, d) -> (m, d, d, rows)
            matrices = np.moveaxis(matrices, 0, -1)
        stream.place(np.subtract(members, window.start), kind, matrices,
                     per_row)
    return stream


def _check(stack: np.ndarray, n_qubits: int, records: np.ndarray,
           mats: np.ndarray, overlaps: Optional[np.ndarray] = None) -> None:
    """Refuse records that would reach outside ``stack``, ``mats`` or the
    sweep's ``overlaps``."""
    if not (stack.dtype == np.complex128 and stack.ndim == 2
            and stack.flags.c_contiguous and 0 < n_qubits < 63
            and stack.shape[0] == 1 << n_qubits):
        raise ValueError(
            f"the C kernels need a C-contiguous complex128 (2**{n_qubits}, "
            f"batch) stack, got {stack.dtype} {stack.shape}")
    if records.ndim != 2 or records.shape[1] != 6:
        raise ValueError(f"gate records must be (n_gates, 6), got "
                         f"{records.shape}")
    kind, qa, qb = records[:, KIND], records[:, QA], records[:, QB]
    per_row = records[:, PER_ROW] != 0
    entries = np.where(kind == DENSE, 16, 4)
    if (np.any((kind < ONE) | (kind > DENSE))
            or np.any((qa < 0) | (qa >= n_qubits))
            or np.any((kind != ONE) & ((qb < 0) | (qb >= n_qubits)
                                       | (qb == qa)))
            or np.any(records[:, OFFSET] < 0)
            or np.any(records[:, OFFSET]
                      + entries * np.where(per_row, stack.shape[1], 1)
                      > mats.size)):
        raise ValueError("inconsistent gate records for the C kernels")
    if overlaps is None:
        return
    rows = records[:, OVERLAP]
    if (overlaps.dtype != np.complex128 or not overlaps.flags.c_contiguous
            or overlaps.ndim != 3 or 2 * overlaps.shape[2] != stack.shape[1]
            or np.any(per_row) or np.any(rows >= overlaps.shape[0])
            or np.any((rows >= 0) & (entries > overlaps.shape[1]))):
        raise ValueError("inconsistent sweep records for the C kernels")


def _apply(library, buffer: np.ndarray, n_qubits: int, stream: _Stream
           ) -> None:
    """One ``qugeo_apply`` call of ``stream`` on a ``(2**n, cols)`` buffer."""
    mats = stream.matrices()
    _check(buffer, n_qubits, stream.records, mats)
    status = library.qugeo_apply(buffer, n_qubits, buffer.shape[1],
                                 stream.records, len(stream.records), mats)
    if status != 0:
        raise RuntimeError(f"qugeo_apply returned {status}")


def forward(library, circuit: "ParameterizedCircuit", params: np.ndarray,
            stack: np.ndarray) -> None:
    """Apply ``circuit`` to a ``(batch, 2**n)`` :func:`empty_stack` in place.

    ``params`` is a validated vector or ``(batch, n_params)`` matrix.  One
    ``qugeo_apply`` call per window keeps the gate tables bounded however
    deep the circuit and however tall the parameter matrix.
    """
    rows = params.shape[0] if params.ndim == 2 else 1
    step = max(1, GATE_TABLE_WINDOW // max(1, rows))
    for start in range(0, len(circuit.ops), step):
        window = range(start, min(start + step, len(circuit.ops)))
        _apply(library, stack.T, circuit.n_qubits,
               _forward_stream(circuit, params, window))


def apply_gate(library, stack: np.ndarray, matrix: np.ndarray,
               targets: Tuple[int, ...], n_qubits: int) -> None:
    """One validated gate matrix, or per-row ``(batch, d, d)`` stack, on a
    ``(batch, 2**n)`` complex128 stack in place."""
    stream = _Stream([targets])
    kind, matrices = _gate_form(matrix)
    per_row = matrices.ndim == 3  # (batch, d, d) -> (1, d, d, batch)
    stream.place([0], kind, np.moveaxis(matrices, 0, -1)[None]
                 if per_row else matrices, per_row)
    buffer = stack.T
    copied = not buffer.flags.c_contiguous
    if copied:  # a row-major stack: run on a batch-innermost copy
        buffer = np.ascontiguousarray(buffer)
    _apply(library, buffer, n_qubits, stream)
    if copied:
        stack[...] = buffer.T


def sweep(library, circuit: "ParameterizedCircuit", params: np.ndarray,
          lams: np.ndarray, outputs: np.ndarray, grads: np.ndarray) -> None:
    """The reversible adjoint sweep in one ``qugeo_sweep`` call per window,
    adding into the caller's C-contiguous ``(batch, n_params)`` ``grads``."""
    n = circuit.n_qubits
    batch, dim = lams.shape
    parametric = [index for index, op in enumerate(circuit.ops)
                  if op.is_parametric]
    if not parametric:
        return
    if grads.shape != (batch, circuit.n_params) or not (
            grads.flags.c_contiguous and grads.dtype == np.float64):
        raise ValueError("grads must be a C-contiguous float64 "
                         f"{(batch, circuit.n_params)} buffer")
    flat = grads.reshape(-1)  # a view of the caller's buffer
    offsets = circuit.n_params * np.arange(batch)[:, None]
    first = parametric[0]
    stack = empty_stack(2 * batch, dim)
    stack[:batch] = lams
    stack[batch:] = outputs
    for stop in range(len(circuit.ops), first, -_SWEEP_WINDOW):
        window = range(max(first, stop - _SWEEP_WINDOW), stop)
        stream = _Stream.of_window(circuit, window, _FIXED_DAGGER)
        families = list(_sweep_tables(circuit, params, window))
        # A window may hold no parametric op at all.
        n_rows = sum(len(family[0]) for family in families)
        entries = max((family[4].shape[1] for family in families), default=4)
        width = max((family[4].shape[2] for family in families), default=1)
        # weights[row, p, k] = W[k, p] of the row-th parametric op, and its
        # parameter slots; both zero-padded to the widest family.
        weights = np.zeros((n_rows, width, entries), dtype=np.complex128)
        slots = np.full((n_rows, width), -1, dtype=np.int64)
        row = 0
        for members, family_slots, controlled, inverse, weight in families:
            rows = np.arange(row, row + len(members))
            row += len(members)
            if controlled:
                kind, inverse = CONTROLLED, inverse[:, 2:, 2:]
            else:
                kind = ONE if inverse.shape[-1] == 2 else DENSE
            positions = np.subtract(members, window.start)
            stream.place(positions, kind, inverse, per_row=False)
            stream.records[positions, OVERLAP] = rows
            weights[rows, :weight.shape[2], :weight.shape[1]] = (
                weight.swapaxes(1, 2))
            slots[rows, :family_slots.shape[1]] = family_slots
        mats = stream.matrices()
        overlaps = np.zeros((n_rows, entries, batch), dtype=np.complex128)
        _check(stack.T, n, stream.records, mats, overlaps)
        status = library.qugeo_sweep(
            stack.T, n, batch, stream.records, len(stream.records), mats,
            overlaps, entries, int(window.start > first))
        if status != 0:
            raise RuntimeError(f"qugeo_sweep returned {status}")
        # grads[b, slot] += 2 Re sum_k W[k, p] h[k, b]: one scatter for the
        # window (an op may list one parameter slot twice), through flat
        # indices: once a complex matmul has run, a 2-D add.at measured
        # ~15x slower than this 1-D one.
        values = 2.0 * np.matmul(weights, overlaps).real
        used = slots >= 0
        np.add.at(flat, (slots[used] + offsets).reshape(-1),
                  values[used].T.reshape(-1))
