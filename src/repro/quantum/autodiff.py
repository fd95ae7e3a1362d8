"""Gradients of scalar losses through parameterised circuits.

Training a VQC needs ``dL/d(theta)`` for every circuit parameter.  Four
methods are provided:

* :func:`circuit_gradients_batched` — reverse-mode ("adjoint")
  differentiation of a whole ``(batch, 2**n)`` stack of input states sharing
  one parameter vector.  For a real loss ``L(psi_out)`` the gradient of a
  gate parameter is ``2 Re <lambda | dU/dtheta psi_before>`` where
  ``lambda = dL/d(psi_out*)`` is pulled backwards through the inverse gates.
  The sweep is *reversible* (Jones & Gacon, arXiv:2009.02823): one fused
  forward pass keeps only the output stack, and the backward pass
  uncomputes every pre-gate state as ``U^dagger psi`` alongside the
  co-state instead of storing it, so memory is ``O(batch * 2**n)`` at any
  circuit depth and the cost is independent of the parameter count.  This
  is the one gradient path used for training, on every backend.
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

from repro.quantum.circuit import ParameterizedCircuit
from repro.quantum.parametric import PARAMETRIC_GATES
from repro.telemetry import get_telemetry
from repro.xm import ensure_complex

# A loss head maps the output statevector to (loss value, dL/d(psi*)).
LossHead = Callable[[np.ndarray], Tuple[float, np.ndarray]]

# A batched loss head maps a (batch, 2**n) output stack to per-sample losses
# of shape (batch,) and a (batch, 2**n) co-state stack dL_b/d(psi_b*).
BatchedLossHead = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]

# Amplitude budget (~32 MB of complex128) for one stacked parameter-shift
# chunk in :func:`parameter_shift_gradients`.
_SHIFT_SWEEP_MAX_ELEMENTS = 1 << 21


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
        Simulation engine (name, instance or ``None`` for the default).

    Returns
    -------
    (loss, gradients):
        The loss value and an array of ``circuit.n_params`` gradients.
    """
    state = ensure_complex(input_state).reshape(1, -1)

    def batched_head(outputs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        # A co-state of the wrong length fails the batched head check.
        loss, lam = loss_head(outputs[0])
        return np.array([float(loss)]), ensure_complex(lam).reshape(1, -1)

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
        Simulation engine (name, instance or ``None`` for the default).  The
        sweep needs only ``run_batched`` and ``apply_gate_batched``, which
        every backend provides.

    Returns
    -------
    (losses, gradients):
        Per-sample losses of shape ``(batch,)`` and the per-sample gradient
        matrix of shape ``(batch, circuit.n_params)``.
    """
    from repro.backends import get_backend

    engine = get_backend(backend)
    params = np.asarray(params, dtype=np.float64).reshape(-1)
    # Complex stacks keep their precision (a complex64 batch sweeps at
    # complex64 under the float32 policy); real inputs become complex128.
    states = ensure_complex(input_states)
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
        _reversible_backward_sweep(engine, circuit, params, lams, outputs,
                                   grads)
    return losses, grads


def _check_batched_head(result, batch: int, dim: int
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """Validate the ``(losses, lams)`` pair returned by a batched loss head."""
    losses, lams = result
    losses = np.asarray(losses, dtype=np.float64).reshape(-1)
    lams = ensure_complex(lams)
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
    """Pull co-states and outputs back through the circuit, filling ``grads``.

    The co-state stack and the output stack travel together as one
    ``(2 * batch, 2**n)`` stack, so each op costs one
    ``apply_gate_batched(U^dagger)`` call that yields both the co-state and
    the (uncomputed) state before the op.  A parametric gate's gradient is
    taken from the stacks *after* it: ``<lam | dU psi_before> =
    <lam | (dU U^dagger) psi_after>``, i.e. one batched reduced overlap
    ``R[b, a, c]`` of ``(lam, psi_after)`` and one ``(batch, 4**k) @
    (4**k, n_gate_params)`` matmul.  ``grads`` is the ``(batch, n_params)``
    output buffer (written in place).
    """
    n = circuit.n_qubits
    batch = lams.shape[0]
    parametric = [index for index, op in enumerate(circuit.ops)
                  if op.is_parametric]
    if not parametric:
        return
    first = parametric[0]
    stack = np.concatenate([lams, outputs])
    for index in range(len(circuit.ops) - 1, first - 1, -1):
        op = circuit.ops[index]
        matrix = circuit.op_matrix(op, params)
        inverse = matrix.conj().T
        if op.is_parametric:
            gate_params = [float(params[i]) for i in op.param_indices]
            derivatives = PARAMETRIC_GATES[op.name].derivatives(gate_params)
            # R[b, a, c] = sum_rest conj(lam)[b, a, rest] * psi[b, c, rest];
            # every parameter derivative then reduces to one row-wise dot
            # 2 Re(sum_ac (dU U^dagger)[a, c] R[b, a, c]).
            reduced = _reduced_overlap_batched(stack[:batch], stack[batch:],
                                               op.qubits, n)
            d_stack = np.stack(derivatives) @ inverse
            contrib = 2.0 * np.real(reduced.reshape(batch, -1)
                                    @ d_stack.reshape(len(derivatives), -1).T)
            for column, param_index in enumerate(op.param_indices):
                grads[:, param_index] += contrib[:, column]
        if index > first:
            # lam <- U^dagger lam and psi_after <- U^dagger psi_after, at once.
            stack = engine.apply_gate_batched(stack, inverse, op.qubits, n)


def _reduced_overlap_batched(lams: np.ndarray, states: np.ndarray,
                             targets, n_qubits: int) -> np.ndarray:
    """``R[b, a, c] = <lam_ba | state_bc>`` over all qubits except ``targets``.

    ``lams`` and ``states`` are ``(batch, 2**n)`` stacks; the result has
    shape ``(batch, 2**k, 2**k)`` with ``a`` / ``c`` running over the
    computational basis of the target qubits (ordered as given).
    """
    k = len(targets)
    batch = lams.shape[0]
    shifted = [t + 1 for t in targets]
    lam_t = np.moveaxis(lams.reshape((batch,) + (2,) * n_qubits), shifted,
                        range(1, k + 1))
    state_t = np.moveaxis(states.reshape((batch,) + (2,) * n_qubits), shifted,
                          range(1, k + 1))
    lam_flat = lam_t.reshape(batch, 2**k, -1)
    state_flat = state_t.reshape(batch, 2**k, -1)
    # Adjoint differentiation runs on host numpy stacks (apply_gate_batched
    # returns host arrays on every engine); it does not take an xm handle.
    return np.matmul(lam_flat.conj(), state_flat.swapaxes(1, 2))  # qugeo-lint: disable=QG003 -- host-numpy adjoint path by design


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
    params = np.asarray(params, dtype=np.float64).reshape(-1)
    loss, _ = _evaluate(circuit, params, input_state, loss_head, backend)
    if indices is None:
        indices = range(params.size)
    indices = [int(i) for i in indices]
    grads = np.zeros(len(indices))
    for row, i in enumerate(indices):
        shifted = params.copy()
        shifted[i] += epsilon
        loss_plus, _ = _evaluate(circuit, shifted, input_state, loss_head, backend)
        shifted[i] -= 2 * epsilon
        loss_minus, _ = _evaluate(circuit, shifted, input_state, loss_head, backend)
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

    On a backend advertising ``batched_params`` (e.g. ``"einsum"``) the whole
    sweep — both shifted circuits for every parameter — executes as one
    stacked contraction over a ``(2 * n_params, n_params)`` parameter matrix
    instead of ``2 * n_params`` sequential simulations.
    """
    from repro.backends import get_backend

    engine = get_backend(backend)
    params = np.asarray(params, dtype=np.float64).reshape(-1)
    loss, _ = _evaluate(circuit, params, input_state, loss_head, engine)
    grads = np.zeros_like(params)
    if params.size == 0:
        return loss, grads
    if engine.capabilities.batched_params and engine.capabilities.batched_states:
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
    for i in range(params.size):
        shifted = params.copy()
        shifted[i] += shift
        loss_plus, _ = _evaluate(circuit, shifted, input_state, loss_head, engine)
        shifted[i] -= 2 * shift
        loss_minus, _ = _evaluate(circuit, shifted, input_state, loss_head, engine)
        grads[i] = 0.5 * (loss_plus - loss_minus)
    return loss, grads


def _evaluate(circuit: ParameterizedCircuit, params: np.ndarray,
              input_state: np.ndarray, loss_head: LossHead,
              backend=None) -> Tuple[float, np.ndarray]:
    output = circuit.run(input_state, params, backend=backend)
    loss, lam = loss_head(output)
    return float(loss), lam
