"""Fixed (non-parameterised) gate matrices and statevector application.

Convention: a state over ``n`` qubits is a complex vector of length ``2**n``.
When reshaped to ``(2,) * n``, axis ``q`` corresponds to qubit ``q``; the
basis index of a bitstring ``b_0 b_1 ... b_{n-1}`` is therefore
``sum(b_q * 2**(n-1-q))`` (qubit 0 is the most significant bit).  All helpers
in :mod:`repro.quantum` follow this convention.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

_SQRT2 = np.sqrt(2.0)

GATES: Dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
    "H": np.array([[1, 1], [1, -1]], dtype=np.complex128) / _SQRT2,
    "S": np.array([[1, 0], [0, 1j]], dtype=np.complex128),
    "T": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=np.complex128),
    "CNOT": np.array([[1, 0, 0, 0],
                      [0, 1, 0, 0],
                      [0, 0, 0, 1],
                      [0, 0, 1, 0]], dtype=np.complex128),
    "CZ": np.diag([1, 1, 1, -1]).astype(np.complex128),
    "SWAP": np.array([[1, 0, 0, 0],
                      [0, 0, 1, 0],
                      [0, 1, 0, 0],
                      [0, 0, 0, 1]], dtype=np.complex128),
}

# Freeze the canonical matrices: caches key off their identity, so in-place
# mutation would silently serve stale results.
for _gate_matrix in GATES.values():
    _gate_matrix.setflags(write=False)
del _gate_matrix


def is_unitary(matrix: np.ndarray, atol: float = 1e-10) -> bool:
    """Return ``True`` if ``matrix`` is unitary within tolerance ``atol``."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    identity = np.eye(matrix.shape[0])
    return bool(np.allclose(matrix.conj().T @ matrix, identity, atol=atol))


def apply_matrix(state: np.ndarray, matrix: np.ndarray,
                 targets: Sequence[int], n_qubits: int) -> np.ndarray:
    """Apply a ``2^k x 2^k`` matrix to ``targets`` qubits of ``state``.

    Parameters
    ----------
    state:
        Complex statevector of length ``2**n_qubits``.
    matrix:
        Gate matrix acting on ``len(targets)`` qubits.  ``targets[0]`` is the
        most significant qubit of the gate's own index space (so for CNOT,
        ``targets = (control, target)``).
    targets:
        Distinct qubit indices the gate acts on.
    n_qubits:
        Total number of qubits of the register.

    Returns
    -------
    numpy.ndarray
        The new statevector (a fresh array; the input is not modified).
    """
    targets = tuple(int(t) for t in targets)
    k = len(targets)
    if len(set(targets)) != k:
        raise ValueError(f"duplicate target qubits: {targets}")
    for t in targets:
        if not 0 <= t < n_qubits:
            raise ValueError(f"target qubit {t} outside register of {n_qubits}")
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.shape != (2**k, 2**k):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match {k} target qubit(s)")
    state = np.asarray(state, dtype=np.complex128)
    if state.size != 2**n_qubits:
        raise ValueError(
            f"state length {state.size} does not match {n_qubits} qubits")

    if k == 1:
        return _apply_single_qubit(state, matrix, targets[0], n_qubits)
    if k == 2:
        return _apply_two_qubit(state, matrix, targets[0], targets[1], n_qubits)
    tensor = state.reshape((2,) * n_qubits)
    gate = matrix.reshape((2,) * (2 * k))
    # Contract the gate's input indices (last k axes) with the target axes.
    moved = np.tensordot(gate, tensor, axes=(tuple(range(k, 2 * k)), targets))
    # tensordot puts the gate's output axes first; move them back into place.
    moved = np.moveaxis(moved, tuple(range(k)), targets)
    return np.ascontiguousarray(moved.reshape(-1))


def _apply_single_qubit(state: np.ndarray, matrix: np.ndarray,
                        target: int, n_qubits: int) -> np.ndarray:
    """Fast path: apply a 2x2 matrix to one qubit.

    With qubit 0 as the most significant bit, the state reshapes to
    ``(2**target, 2, 2**(n-1-target))`` and the gate mixes the middle axis.
    """
    left = 1 << target
    right = 1 << (n_qubits - 1 - target)
    tensor = state.reshape(left, 2, right)
    zero = tensor[:, 0, :]
    one = tensor[:, 1, :]
    out = np.empty_like(tensor)
    out[:, 0, :] = matrix[0, 0] * zero + matrix[0, 1] * one
    out[:, 1, :] = matrix[1, 0] * zero + matrix[1, 1] * one
    return out.reshape(-1)


def _apply_two_qubit(state: np.ndarray, matrix: np.ndarray,
                     first: int, second: int, n_qubits: int) -> np.ndarray:
    """Fast path: apply a 4x4 matrix to the qubit pair ``(first, second)``.

    The gate's own basis orders ``first`` as the more significant bit (so for
    controlled gates ``first`` is the control).
    """
    low, high = (first, second) if first < second else (second, first)
    left = 1 << low
    mid = 1 << (high - low - 1)
    right = 1 << (n_qubits - 1 - high)
    tensor = state.reshape(left, 2, mid, 2, right)
    blocks = [tensor[:, a, :, b, :] for a in (0, 1) for b in (0, 1)]
    out = np.empty_like(tensor)
    terms = _fixed_two_qubit_terms(matrix, first < second)
    if terms is not None:
        for a in (0, 1):
            for b in (0, 1):
                acc = None
                for block_index, coeff in terms[(a << 1) | b]:
                    term = coeff * blocks[block_index]
                    acc = term if acc is None else acc + term
                out[:, a, :, b, :] = 0.0 if acc is None else acc
        return out.reshape(-1)
    # Parameterised matrices are fresh arrays: scan and accumulate in one
    # pass, exactly the pre-cache hot path.
    if first < second:
        def gate_index(low_bit, high_bit):
            return (low_bit << 1) | high_bit
    else:
        def gate_index(low_bit, high_bit):
            return (high_bit << 1) | low_bit
    for a in (0, 1):
        for b in (0, 1):
            row = gate_index(a, b)
            acc = None
            for c in (0, 1):
                for d in (0, 1):
                    coeff = matrix[row, gate_index(c, d)]
                    if coeff == 0:
                        continue
                    term = coeff * blocks[(c << 1) | d]
                    acc = term if acc is None else acc + term
            out[:, a, :, b, :] = 0.0 if acc is None else acc
    return out.reshape(-1)


# The module-level GATES matrices are immortal and frozen read-only, so
# their ids are stable cache keys for the memoised term structures.
_FIXED_GATE_IDS = frozenset(id(m) for m in GATES.values())
_FIXED_GATE_TERMS: Dict[Tuple[int, bool],
                        Tuple[Tuple[Tuple[int, complex], ...], ...]] = {}


def _fixed_two_qubit_terms(matrix: np.ndarray, low_is_first: bool):
    """Memoised non-zero term structure of a fixed 4x4 gate on an axis pair.

    ``terms[(a << 1) | b]`` lists ``(input_block_index, coefficient)`` pairs
    for the output block with low-axis bit ``a`` and high-axis bit ``b``,
    already skipping zero entries — so the sparsity scan of CNOT/CZ/SWAP
    happens once per (gate, axis order) instead of per application.
    Returns ``None`` for matrices that are not the canonical ``GATES``
    constants (e.g. parameterised gates); ``low_is_first`` records whether
    the gate's more significant qubit is the lower state axis.
    """
    key = (id(matrix), low_is_first)
    if key[0] not in _FIXED_GATE_IDS:
        return None
    terms = _FIXED_GATE_TERMS.get(key)
    if terms is None:
        entries = []
        for a in (0, 1):
            for b in (0, 1):
                if low_is_first:
                    row = (a << 1) | b
                else:
                    row = (b << 1) | a
                cell = []
                for c in (0, 1):
                    for d in (0, 1):
                        column = (c << 1) | d if low_is_first else (d << 1) | c
                        coeff = matrix[row, column]
                        if coeff != 0:
                            cell.append(((c << 1) | d, complex(coeff)))
                entries.append(tuple(cell))
        terms = tuple(entries)
        _FIXED_GATE_TERMS[key] = terms
    return terms
