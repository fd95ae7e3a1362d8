"""State-stack layout and gate structure shared by the engine and the
generic adjoint sweep.

:func:`empty_stack` lays a ``(batch, 2**n)`` stack out batch-innermost, the
layout the compiled kernels of :mod:`repro.backends.kernels` work on.
:func:`control_block` reads a controlled gate's 2x2 block off its matrix,
which the engine applies to the control=1 half only.  :func:`gate_views`
views a stack (reshape only, no copy) with one length-2 axis per gate
qubit; the generic sweep of :mod:`repro.quantum.autodiff` reads its reduced
overlaps from those views.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import List, Optional, Tuple

import numpy as np

_CONTROL_ROWS = np.eye(2, 4)


def empty_stack(batch: int, dim: int) -> np.ndarray:
    """An uninitialised ``(batch, dim)`` ``complex128`` state stack stored
    batch-innermost.

    It is the transposed view of a ``(dim, batch)`` buffer, so every gate
    view keeps contiguous runs of at least ``batch`` amplitudes whatever the
    target.  On a row-major stack most targets break the views into short
    strided runs; a gate then measured up to 1.7x slower (8 qubits, 2-vCPU
    Xeon VM).
    """
    return np.empty((dim, batch), np.complex128).T


def control_block(matrix: np.ndarray) -> Optional[np.ndarray]:
    """The control=1 block of a controlled two-qubit gate, else ``None``.

    ``matrix`` is a ``(4, 4)`` matrix or ``(batch, 4, 4)`` stack; it is
    controlled (first target as control) when every row has the identity as
    its upper-left block and zero off-diagonal blocks.
    """
    if matrix.shape[-2:] != (4, 4):
        return None
    if matrix.ndim == 2:
        # One matrix: comparing nested lists is cheaper than array ops.
        rows = matrix.tolist()
        controlled = (rows[0] == [1, 0, 0, 0] and rows[1] == [0, 1, 0, 0]
                      and rows[2][:2] == rows[3][:2] == [0, 0])
    else:
        controlled = ((matrix[..., :2, :] == _CONTROL_ROWS).all()
                      and not matrix[..., 2:, :2].any())
    return matrix[..., 2:, 2:] if controlled else None


@lru_cache(maxsize=1024)
def _view_geometry(n_qubits: int, targets: Tuple[int, ...],
                   control: Optional[int]):
    """Reshape (without the batch axis) and index tuples of :func:`gate_views`.

    Memoised: it depends only on a few small ints, and building it took
    ~2 us per gate, a fifth of a whole gate update on one 8-qubit state.
    """
    qubits = sorted(targets + (() if control is None else (control,)))
    shape, low = [], 0
    for qubit in qubits:
        shape += [1 << (qubit - low), 2]
        low = qubit + 1
    shape.append(1 << (n_qubits - low))
    index: List[object] = [slice(None)] * (len(shape) + 1)
    if control is not None:
        index[2 + 2 * qubits.index(control)] = 1
    axes = [2 + 2 * qubits.index(t) for t in targets]
    indices = []
    for bits in product((0, 1), repeat=len(targets)):
        for axis, bit in zip(axes, bits):
            index[axis] = bit
        indices.append(tuple(index))
    return tuple(shape), tuple(indices)


def gate_views(stack, n_qubits: int, targets: Tuple[int, ...],
               control: Optional[int] = None) -> List:
    """The ``2**k`` sub-views of ``stack`` for each basis state of ``targets``.

    The ``(batch, 2**n)`` stack is reshaped to ``(batch, L0, 2, L1, 2, ...,
    Lk)``: one length-2 axis per gate qubit in ascending order (qubit 0 is
    the most significant bit), the ``L`` axes merging the qubits in between.
    The views are ordered by the gate's own basis index (``targets[0]`` most
    significant); with a ``control`` qubit only its control=1 half is viewed.
    """
    shape, indices = _view_geometry(n_qubits, targets, control)
    view = stack.reshape((stack.shape[0],) + shape)
    return [view[index] for index in indices]
