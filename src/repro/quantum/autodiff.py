"""Gradients of scalar losses through parameterised circuits.

Training a VQC needs ``dL/d(theta)`` for every circuit parameter.  Four
methods are provided:

* :func:`circuit_gradients_batched` — reverse-mode ("adjoint")
  differentiation of a whole ``(batch, 2**n)`` stack of input states sharing
  one parameter vector.  For a real loss ``L(psi_out)`` the gradient of a
  gate parameter is ``2 Re <lambda | dU/dtheta psi_before>`` where
  ``lambda = dL/d(psi_out*)`` is pulled backwards through the inverse gates.
  The sweep is *reversible* (Jones & Gacon, arXiv:2009.02823): one
  forward pass keeps only the output stack, and the backward pass
  uncomputes every pre-gate state as ``U^dagger psi`` alongside the
  co-state instead of storing it, so memory is ``O(batch * 2**n)`` at any
  circuit depth and the cost is independent of the parameter count.  Gate
  matrices and ``dU U^dagger`` products come from one vectorised call per
  gate family and window of ops (:func:`_sweep_tables`).  The engine runs
  the backward pass (:meth:`~repro.backends.base.SimulationBackend.backward_sweep`):
  the default engine makes one compiled call per window, and the oracle
  runs the generic numpy sweep of this module.  This is the one gradient
  path used for training, on either engine.
* :func:`circuit_gradients` — the same sweep for a single input state (a
  batch of one).
* :func:`parameter_shift_gradients` — the hardware-compatible two-term
  parameter-shift rule (valid for gates generated by an involutory operator,
  e.g. RX/RY/RZ); used by the gradient-method ablation benchmark.
* :func:`finite_difference_gradients` — central finite differences; the
  ground truth for unit tests.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.quantum.circuit import GATE_TABLE_WINDOW, ParameterizedCircuit
from repro.quantum.gates import GATES
from repro.quantum.kernel import control_block, empty_stack, gate_views
from repro.telemetry import get_telemetry

# A loss head maps the output statevector to (loss value, dL/d(psi*)).
LossHead = Callable[[np.ndarray], Tuple[float, np.ndarray]]

# A batched loss head maps a (batch, 2**n) output stack to per-sample losses
# of shape (batch,) and a (batch, 2**n) co-state stack dL_b/d(psi_b*).
BatchedLossHead = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]

# Amplitude budget (~32 MB of complex128) for one stacked parameter-shift
# chunk in :func:`parameter_shift_gradients`.
_SHIFT_SWEEP_MAX_ELEMENTS = 1 << 21

# Ops per window of sweep tables: each op keeps ``U^dagger`` and up to three
# ``dU U^dagger`` products, about four gate matrices.
_SWEEP_WINDOW = GATE_TABLE_WINDOW // 4


def circuit_gradients(circuit: ParameterizedCircuit, params: np.ndarray,
                      input_state: np.ndarray,
                      loss_head: LossHead,
                      backend=None) -> Tuple[float, np.ndarray]:
    """Reverse-mode gradient of ``loss_head`` through ``circuit``.

    A batch of one through :func:`circuit_gradients_batched`.

    Parameters
    ----------
    circuit:
        The gate program.
    params:
        Flat parameter vector.
    input_state:
        Encoded input statevector (treated as constant).
    loss_head:
        Function mapping the output statevector to ``(loss, dL/d(psi*))``.
    backend:
        Simulation engine instance, or ``None`` for the default.

    Returns
    -------
    (loss, gradients):
        The loss value and an array of ``circuit.n_params`` gradients.
    """
    state = np.asarray(input_state, dtype=np.complex128).reshape(1, -1)

    def batched_head(outputs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        # A co-state of the wrong length fails the batched head check.
        loss, lam = loss_head(outputs[0])
        return (np.array([float(loss)]),
                np.asarray(lam, dtype=np.complex128).reshape(1, -1))

    losses, grads = circuit_gradients_batched(circuit, params, state,
                                              batched_head, backend=backend)
    return float(losses[0]), grads[0]


def circuit_gradients_batched(circuit: ParameterizedCircuit, params: np.ndarray,
                              input_states: np.ndarray,
                              loss_head: BatchedLossHead,
                              backend=None) -> Tuple[np.ndarray, np.ndarray]:
    """Reverse-mode gradients of a whole mini-batch in one reversible sweep.

    Parameters
    ----------
    circuit:
        The gate program (shared by every sample).
    params:
        Flat parameter vector (shared by every sample).
    input_states:
        ``(batch, 2**n)`` stack of encoded input statevectors.
    loss_head:
        Vectorised head mapping the ``(batch, 2**n)`` output stack to
        ``(losses, lams)`` where ``losses`` has shape ``(batch,)`` and
        ``lams`` is the ``(batch, 2**n)`` co-state stack ``dL_b/d(psi_b*)``.
        It is invoked exactly once per call, always on the full batch.
    backend:
        Simulation engine instance, or ``None`` for the default.  The
        sweep needs only ``run_batched`` and ``backward_sweep``, which both
        engines provide.

    Returns
    -------
    (losses, gradients):
        Per-sample losses of shape ``(batch,)`` and the per-sample gradient
        matrix of shape ``(batch, circuit.n_params)``.
    """
    from repro.backends import get_backend

    engine = get_backend(backend)
    params = np.asarray(params, dtype=np.float64).reshape(-1)
    states = np.asarray(input_states, dtype=np.complex128)
    if states.ndim != 2:
        raise ValueError("input_states must have shape (batch, 2**n_qubits)")
    batch, dim = states.shape
    if dim != 2**circuit.n_qubits:
        raise ValueError(
            f"state length {dim} does not match {circuit.n_qubits} qubits")
    if batch == 0:
        return np.zeros(0), np.zeros((0, circuit.n_params))

    telemetry = get_telemetry()
    if telemetry.enabled:
        telemetry.counter("gradients.batched.calls").inc()
        telemetry.counter("gradients.batched.samples").inc(batch)
    with telemetry.span("gradients.forward"):
        outputs = engine.run_batched(circuit, states, params)
    losses, lams = _check_batched_head(loss_head(outputs), batch, dim)
    grads = np.zeros((batch, circuit.n_params))
    with telemetry.span("gradients.backward"):
        engine.backward_sweep(circuit, params, lams, outputs, grads)
    return losses, grads


def _check_batched_head(result, batch: int, dim: int
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """Validate the ``(losses, lams)`` pair returned by a batched loss head."""
    losses, lams = result
    losses = np.asarray(losses, dtype=np.float64).reshape(-1)
    lams = np.asarray(lams, dtype=np.complex128)
    if losses.size != batch:
        raise ValueError(
            f"batched loss head returned {losses.size} losses for a batch "
            f"of {batch}")
    if lams.shape != (batch, dim):
        raise ValueError(
            f"batched loss head returned a co-state stack of shape "
            f"{lams.shape}, expected {(batch, dim)}")
    return losses, lams


def _reversible_backward_sweep(engine, circuit: ParameterizedCircuit,
                               params: np.ndarray, lams: np.ndarray,
                               outputs: np.ndarray, grads: np.ndarray) -> None:
    """The generic sweep: pull co-states and outputs back through the
    circuit one gate at a time, filling ``grads``.

    The co-state and output stacks travel as one ``(2 * batch, 2**n)`` stack
    the sweep owns: one in-place ``apply_gate_batched_inplace(U^dagger)`` per
    op yields both the co-state and the (uncomputed) state before the op.  A
    parametric gate's gradient comes from the stacks *after* it,
    ``<lam | dU psi_before> = <lam | (dU U^dagger) psi_after>``: the reduced
    overlap of ``(lam, psi_after)`` on the gate's targets (the control=1
    half for a controlled gate), read from strided views of the stack, times
    the ``dU U^dagger`` weights of :func:`_sweep_tables`.  ``grads`` is the
    C-contiguous ``(batch, n_params)`` output buffer (written in place).  It
    is the default
    :meth:`~repro.backends.base.SimulationBackend.backward_sweep`, which the
    oracle runs; the default engine runs the same sweep compiled.
    """
    n = circuit.n_qubits
    batch, dim = lams.shape
    parametric = [index for index, op in enumerate(circuit.ops)
                  if op.is_parametric]
    if not parametric:
        return
    if not grads.flags.c_contiguous:
        raise ValueError("grads must be a C-contiguous (batch, n_params) "
                         "buffer")
    flat = grads.reshape(-1)  # a view of the caller's buffer
    offsets = grads.shape[1] * np.arange(batch)[:, None]
    first = parametric[0]
    stack = empty_stack(2 * batch, dim)
    stack[:batch] = lams
    stack[batch:] = outputs
    for stop in range(len(circuit.ops), first, -_SWEEP_WINDOW):
        window = range(max(first, stop - _SWEEP_WINDOW), stop)
        inverses = {index: GATES[circuit.ops[index].name].conj().T
                    for index in window
                    if not circuit.ops[index].is_parametric}
        weights = {}
        for members, _, controlled, inverse, weight in _sweep_tables(
                circuit, params, window):
            for row, index in enumerate(members):
                inverses[index] = inverse[row]
                weights[index] = (controlled, weight[row])
        for index in reversed(window):
            op = circuit.ops[index]
            if op.is_parametric:
                controlled, weight = weights[index]
                overlap = _reduced_overlap(stack, batch, n, op.qubits,
                                           controlled)
                # add.at: an op may list one parameter slot twice.  Flat
                # indices, because once a complex matmul has run a 2-D
                # add.at measured ~15x slower than this 1-D one.
                np.add.at(flat, (offsets + op.param_indices).reshape(-1),
                          2.0 * (overlap @ weight).real.reshape(-1))
            if index > first:
                # lam <- U^dagger lam and psi_after <- U^dagger psi_after.
                engine.apply_gate_batched_inplace(stack, inverses[index],
                                                  op.qubits, n)


def _sweep_tables(circuit: ParameterizedCircuit, params: np.ndarray,
                  window: range):
    """``U^dagger`` and overlap weights of the parametric ops in ``window``.

    Yields ``(members, slots, controlled, inverse, weight)`` per gate
    family: the op indices, their ``(m, n_gate_params)`` parameter slots,
    whether ``dU U^dagger`` lives on the control=1 block, the ``(m, 2**k,
    2**k)`` inverses and the ``(m, d * d, n_gate_params)`` weights with
    ``weight[i, a * d + c, p] = (dU_p U^dagger)[a, c]``, matching
    :func:`_reduced_overlap`; ``d`` is 2 on the control=1 block of a
    controlled gate, else ``2**k``.  One vectorised constructor call per
    family builds every matrix and derivative at once.
    """
    for gate, members, slots, columns in circuit.gate_families(params,
                                                               window):
        inverse = gate.matrix_stack(columns).conj().swapaxes(-1, -2)
        derivatives = gate.derivative_stack(columns)
        # dU U^dagger lives on the control=1 block when both U and every dU
        # vanish outside it.
        controlled = (control_block(inverse) is not None
                      and not derivatives[..., :2, :].any()
                      and not derivatives[..., :, :2].any())
        if controlled:
            pullback = derivatives[..., 2:, 2:] @ inverse[:, None, 2:, 2:]
        else:
            pullback = derivatives @ inverse[:, None]
        del derivatives
        weight = pullback.reshape(pullback.shape[:2] + (-1,)).swapaxes(-1, -2)
        yield members, slots, controlled, inverse, weight


def _reduced_overlap(stack: np.ndarray, batch: int, n_qubits: int,
                     targets, controlled: bool) -> np.ndarray:
    """``h[b, a * d + c] = <lam_{b,a} | psi_{b,c}>`` on the target basis.

    ``stack`` is the sweep's co-state-then-state stack; the sum runs over
    every qubit but ``targets`` (on the control=1 half of the first target
    when ``controlled``), through strided views of the stack.
    """
    if controlled:
        views = gate_views(stack, n_qubits, targets[1:], control=targets[0])
    else:
        views = gate_views(stack, n_qubits, targets)
    rest = tuple(range(1, views[0].ndim))
    out = np.empty((batch, len(views) ** 2), dtype=stack.dtype)
    column = 0
    for lam_view in views:
        lam = np.conj(lam_view[:batch])
        for psi_view in views:
            np.add.reduce(lam * psi_view[batch:], axis=rest,
                          out=out[:, column])
            column += 1
    return out


def finite_difference_gradients(circuit: ParameterizedCircuit, params: np.ndarray,
                                input_state: np.ndarray, loss_head: LossHead,
                                epsilon: float = 1e-6,
                                backend=None,
                                indices: Optional[Sequence[int]] = None
                                ) -> Tuple[float, np.ndarray]:
    """Central finite-difference gradients (reference implementation for tests).

    ``indices`` restricts the differentiation to those parameters (all of
    them by default); the gradient array lists them in that order.
    """
    from repro.backends import get_backend

    engine = get_backend(backend)
    params = np.asarray(params, dtype=np.float64).reshape(-1)
    loss, _ = _evaluate(circuit, params, input_state, loss_head, engine)
    if indices is None:
        indices = range(params.size)
    indices = [int(i) for i in indices]
    grads = np.zeros(len(indices))
    for row, i in enumerate(indices):
        shifted = params.copy()
        shifted[i] += epsilon
        loss_plus, _ = _evaluate(circuit, shifted, input_state, loss_head, engine)
        shifted[i] -= 2 * epsilon
        loss_minus, _ = _evaluate(circuit, shifted, input_state, loss_head, engine)
        grads[row] = (loss_plus - loss_minus) / (2 * epsilon)
    return loss, grads


def parameter_shift_gradients(circuit: ParameterizedCircuit, params: np.ndarray,
                              input_state: np.ndarray, loss_head: LossHead,
                              shift: float = np.pi / 2,
                              backend=None) -> Tuple[float, np.ndarray]:
    """Two-term parameter-shift gradients.

    Exact for parameters that enter through a rotation generated by an
    operator with eigenvalues +-1/2, up to a global phase (RX, RY, RZ and all
    three angles of U3).  Controlled rotations (CRX, CU3) also have a zero
    eigenvalue, so for them the rule is exact only for observables that do
    not couple the control states.  Otherwise it is an approximation; the
    reproduction uses :func:`circuit_gradients_batched` for training and
    keeps this function for the ablation benchmark comparing gradient
    strategies.

    The whole sweep — both shifted circuits for every parameter — runs as
    stacked :meth:`~repro.backends.SimulationBackend.run_batched` passes
    over a ``(2 * n_params, n_params)`` parameter matrix, chunked to a
    bounded number of amplitudes.  The vectorised engine evaluates each
    chunk in one pass; the numpy oracle loops over its rows.
    """
    from repro.backends import get_backend

    engine = get_backend(backend)
    params = np.asarray(params, dtype=np.float64).reshape(-1)
    loss, _ = _evaluate(circuit, params, input_state, loss_head, engine)
    if params.size == 0:
        return loss, np.zeros_like(params)
    offsets = np.zeros((2 * params.size, params.size))
    rows = np.arange(params.size)
    offsets[2 * rows, rows] = shift
    offsets[2 * rows + 1, rows] = -shift
    shifted = params[None, :] + offsets
    state = np.asarray(input_state, dtype=np.complex128).reshape(-1)
    # Chunk the sweep so one stacked run holds a bounded number of
    # amplitudes: peak memory stays O(chunk) instead of
    # O(n_params * 2**n) however many parameters the circuit has.
    max_rows = max(1, _SHIFT_SWEEP_MAX_ELEMENTS // state.size)
    losses = np.empty(shifted.shape[0])
    for start in range(0, shifted.shape[0], max_rows):
        block = shifted[start:start + max_rows]
        states = np.broadcast_to(state, (block.shape[0], state.size))
        outputs = engine.run_batched(circuit, states, block)
        # Write each loss straight into its slot instead of building a
        # throwaway Python list per chunk.
        for row in range(outputs.shape[0]):
            losses[start + row] = loss_head(outputs[row])[0]
    grads = 0.5 * (losses[0::2] - losses[1::2])
    return loss, grads

def _evaluate(circuit: ParameterizedCircuit, params: np.ndarray,
              input_state: np.ndarray, loss_head: LossHead,
              backend=None) -> Tuple[float, np.ndarray]:
    output = circuit.run(input_state, params, backend=backend)
    loss, lam = loss_head(output)
    return float(loss), lam
