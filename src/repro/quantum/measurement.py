"""Measurement read-outs and their gradients with respect to the statevector.

QuGeoVQC uses two decoders:

* **Pixel-wise (Q-M-PX)** — the magnitudes of a block of amplitudes, obtained
  here as the marginal probabilities of a subset of qubits
  (:func:`marginal_probabilities`),
* **Layer-wise (Q-M-LY)** — independent Pauli-Z expectations of each qubit
  (:func:`z_expectations`).

Each read-out also provides the backward rule ``dL/d(psi*)`` needed by the
reverse-mode differentiation in :mod:`repro.quantum.autodiff`: for a real
loss ``L`` of the complex state ``psi``, the gradient with respect to a
circuit parameter is ``2 Re(lambda^dagger dU/dtheta psi)`` where ``lambda =
dL/d(psi*)``.

The scalar forms take one state of length ``2**n``.  The ``*_batched``
forward read-outs take a ``(batch, 2**n)`` stack of *probabilities* —
exact ``|psi|**2`` rows or the shot-noise estimates of
:func:`sampled_probabilities` — and are what the models' decoders run
(:meth:`repro.core.vqc_core.VQCCore.readout`).  Their ``*_backward_batched``
twins take the ``(batch, 2**n)`` state stack, feeding the stacked adjoint
sweep in :func:`repro.quantum.autodiff.circuit_gradients_batched`.  The
index material all of them need — the ``(len(qubits), 2**n)`` Z-sign
matrix and the basis-index -> outcome-index map of a marginal — depends
only on ``(n_qubits, qubits)`` and is memoised.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np


def _bit_signs(n_qubits: int, qubit: int) -> np.ndarray:
    """Return +-1 for each basis index depending on the value of ``qubit``.

    +1 when the qubit is 0, -1 when it is 1 (qubit 0 is the most significant
    bit of the basis index).
    """
    indices = np.arange(2**n_qubits)
    bit = (indices >> (n_qubits - 1 - qubit)) & 1
    return 1.0 - 2.0 * bit


@lru_cache(maxsize=None)
def _sign_matrix(n_qubits: int, qubits: Tuple[int, ...]) -> np.ndarray:
    """Memoised ``(len(qubits), 2**n)`` matrix of per-qubit basis signs.

    Row ``r`` is :func:`_bit_signs` of ``qubits[r]``, so Z expectations of
    every read-out qubit reduce to one matmul with the probability vector
    instead of rebuilding the sign array per qubit per call.
    """
    for qubit in qubits:
        if not 0 <= qubit < n_qubits:
            raise ValueError(f"qubit {qubit} outside register")
    signs = np.empty((len(qubits), 2**n_qubits))
    for row, qubit in enumerate(qubits):
        signs[row] = _bit_signs(n_qubits, qubit)
    signs.setflags(write=False)
    return signs


@lru_cache(maxsize=None)
def _outcome_indices(n_qubits: int, qubits: Tuple[int, ...]) -> np.ndarray:
    """Memoised map from each basis index to its marginal outcome index.

    Entry ``j`` is the outcome of measuring ``qubits`` on basis state ``j``
    (``qubits[0]`` as the outcome's most significant bit).
    """
    if len(set(qubits)) != len(qubits):
        raise ValueError("duplicate qubits")
    for qubit in qubits:
        if not 0 <= qubit < n_qubits:
            raise ValueError(f"qubit {qubit} outside register")
    indices = np.arange(2**n_qubits)
    outcome = np.zeros_like(indices)
    for position, qubit in enumerate(qubits):
        bit = (indices >> (n_qubits - 1 - qubit)) & 1
        outcome |= bit << (len(qubits) - 1 - position)
    outcome.setflags(write=False)
    return outcome


def _validate_batched(states: np.ndarray, n_qubits: int) -> np.ndarray:
    states = np.asarray(states, dtype=np.complex128)
    if states.ndim != 2 or states.shape[1] != 2**n_qubits:
        raise ValueError(
            f"states must have shape (batch, {2**n_qubits}), got {states.shape}")
    return states


def _validate_probabilities(probs: np.ndarray, n_qubits: int) -> np.ndarray:
    # A complex stack is a state, not |psi|^2.
    probs = np.asarray(probs)
    if np.iscomplexobj(probs):
        raise TypeError("expected a real probability stack |psi|**2, got "
                        "complex amplitudes")
    if probs.ndim != 2 or probs.shape[1] != 2**n_qubits:
        raise ValueError(
            f"probabilities must have shape (batch, {2**n_qubits}), got "
            f"{probs.shape}")
    return probs


def z_expectations(state: np.ndarray, qubits: Sequence[int],
                   n_qubits: int) -> np.ndarray:
    """Pauli-Z expectation value of each qubit in ``qubits``."""
    state = np.asarray(state, dtype=np.complex128).reshape(-1)
    if state.size != 2**n_qubits:
        raise ValueError("state length does not match n_qubits")
    probs = np.abs(state) ** 2
    return _sign_matrix(n_qubits, tuple(int(q) for q in qubits)) @ probs


def z_expectations_batched(probs: np.ndarray, qubits: Sequence[int],
                           n_qubits: int) -> np.ndarray:
    """Z expectations of each row of a ``(batch, 2**n)`` probability stack.

    Returns an array of shape ``(batch, len(qubits))``.
    """
    probs = _validate_probabilities(probs, n_qubits)
    signs = _sign_matrix(n_qubits, tuple(int(q) for q in qubits))
    # One matrix-vector product per row.  A matrix-matrix product rounds a
    # row differently depending on how many rows share the call, and a
    # decoded sample must not depend on its batch: chunked and unchunked
    # prediction agree bit for bit.
    return (signs @ probs[:, :, None])[:, :, 0]


def z_expectations_backward(state: np.ndarray, qubits: Sequence[int],
                            n_qubits: int, grad_output: np.ndarray) -> np.ndarray:
    """Return ``dL/d(psi*)`` for a loss with gradient ``grad_output`` w.r.t.
    the vector of Z expectations."""
    state = np.asarray(state, dtype=np.complex128).reshape(-1)
    grad_output = np.asarray(grad_output, dtype=np.float64).reshape(-1)
    if grad_output.size != len(qubits):
        raise ValueError("grad_output length must match number of qubits")
    signs = _sign_matrix(n_qubits, tuple(int(q) for q in qubits))
    return (grad_output @ signs) * state


def z_expectations_backward_batched(states: np.ndarray, qubits: Sequence[int],
                                    n_qubits: int,
                                    grad_outputs: np.ndarray) -> np.ndarray:
    """Batched :func:`z_expectations_backward`.

    ``grad_outputs`` has shape ``(batch, len(qubits))``; the returned co-state
    stack has shape ``(batch, 2**n)``.
    """
    states = _validate_batched(states, n_qubits)
    grad_outputs = np.asarray(grad_outputs, dtype=np.float64)
    if grad_outputs.shape != (states.shape[0], len(qubits)):
        raise ValueError("grad_outputs must have shape (batch, len(qubits))")
    signs = _sign_matrix(n_qubits, tuple(int(q) for q in qubits))
    return (grad_outputs @ signs) * states


def marginal_probabilities(state: np.ndarray, qubits: Sequence[int],
                           n_qubits: int) -> np.ndarray:
    """Joint outcome probabilities of measuring ``qubits`` (others traced out).

    The returned vector has length ``2**len(qubits)``; outcome index treats
    ``qubits[0]`` as its most significant bit.
    """
    state = np.asarray(state, dtype=np.complex128).reshape(-1)
    if state.size != 2**n_qubits:
        raise ValueError("state length does not match n_qubits")
    qubits = tuple(int(q) for q in qubits)
    if len(set(qubits)) != len(qubits):
        raise ValueError("duplicate qubits")
    for q in qubits:
        if not 0 <= q < n_qubits:
            raise ValueError(f"qubit {q} outside register")
    probs = (np.abs(state) ** 2).reshape((2,) * n_qubits)
    others = tuple(q for q in range(n_qubits) if q not in qubits)
    marginal = probs.sum(axis=others) if others else probs
    # Ensure axis order matches the requested qubit order.
    remaining_order = [q for q in range(n_qubits) if q in qubits]
    permutation = [remaining_order.index(q) for q in qubits]
    marginal = np.transpose(marginal, permutation)
    return marginal.reshape(-1)


def marginal_probabilities_batched(probs: np.ndarray, qubits: Sequence[int],
                                   n_qubits: int) -> np.ndarray:
    """Marginals of each row of a ``(batch, 2**n)`` probability stack.

    Returns a ``(batch, 2**len(qubits))`` matrix; outcome index treats
    ``qubits[0]`` as its most significant bit, as
    :func:`marginal_probabilities` does.
    """
    probs = _validate_probabilities(probs, n_qubits)
    qubits = tuple(int(q) for q in qubits)
    if len(set(qubits)) != len(qubits):
        raise ValueError("duplicate qubits")
    for q in qubits:
        if not 0 <= q < n_qubits:
            raise ValueError(f"qubit {q} outside register")
    batch = probs.shape[0]
    probs = probs.reshape((batch,) + (2,) * n_qubits)
    others = tuple(q + 1 for q in range(n_qubits) if q not in qubits)
    marginal = probs.sum(axis=others) if others else probs
    remaining_order = [q for q in range(n_qubits) if q in qubits]
    permutation = [0] + [remaining_order.index(q) + 1 for q in qubits]
    marginal = np.transpose(marginal, permutation)
    return marginal.reshape(batch, -1)


def marginal_probabilities_backward(state: np.ndarray, qubits: Sequence[int],
                                    n_qubits: int,
                                    grad_output: np.ndarray) -> np.ndarray:
    """Return ``dL/d(psi*)`` for a loss with gradient ``grad_output`` w.r.t.
    the marginal probability vector of ``qubits``."""
    state = np.asarray(state, dtype=np.complex128).reshape(-1)
    qubits = tuple(int(q) for q in qubits)
    grad_output = np.asarray(grad_output, dtype=np.float64).reshape(-1)
    if grad_output.size != 2**len(qubits):
        raise ValueError("grad_output length must be 2**len(qubits)")
    # Each basis state j contributes |psi_j|^2 to exactly one outcome k(j);
    # dL/d(psi*_j) = grad_output[k(j)] * psi_j.
    return grad_output[_outcome_indices(n_qubits, qubits)] * state


def marginal_probabilities_backward_batched(states: np.ndarray,
                                            qubits: Sequence[int],
                                            n_qubits: int,
                                            grad_outputs: np.ndarray
                                            ) -> np.ndarray:
    """Batched :func:`marginal_probabilities_backward`.

    ``grad_outputs`` has shape ``(batch, 2**len(qubits))``; the returned
    co-state stack has shape ``(batch, 2**n)``.
    """
    states = _validate_batched(states, n_qubits)
    qubits = tuple(int(q) for q in qubits)
    grad_outputs = np.asarray(grad_outputs, dtype=np.float64)
    if grad_outputs.shape != (states.shape[0], 2**len(qubits)):
        raise ValueError("grad_outputs must have shape (batch, 2**len(qubits))")
    return grad_outputs[:, _outcome_indices(n_qubits, qubits)] * states


def sample_counts(state: np.ndarray, n_shots: int,
                  rng=None) -> np.ndarray:
    """Sample measurement outcomes of the full register.

    Real near-term devices estimate probabilities and expectation values from
    a finite number of shots; this helper draws ``n_shots`` computational
    basis outcomes from the exact distribution and returns the per-outcome
    counts, so the shot-noise sensitivity of QuGeoVQC's decoders can be
    studied without a hardware backend.

    Determinism: ``rng`` accepts anything :func:`repro.utils.rng.ensure_rng`
    does — an integer seed, a :class:`numpy.random.SeedSequence`, an existing
    generator, or ``None``.  The same ``(state, n_shots, seed)`` triple
    always returns bit-identical counts, so sampled readouts are exactly
    reproducible across runs and through :func:`sampled_probabilities`.
    """
    from repro.utils.rng import ensure_rng

    if n_shots <= 0:
        raise ValueError("n_shots must be positive")
    probs = np.abs(np.asarray(state).reshape(-1)) ** 2
    probs = probs / probs.sum()
    rng = ensure_rng(rng)
    outcomes = rng.choice(probs.size, size=n_shots, p=probs)
    return np.bincount(outcomes, minlength=probs.size)


def sampled_probabilities(state: np.ndarray, n_shots: int,
                          rng=None) -> np.ndarray:
    """Shot-noise estimate of the basis-state probabilities.

    Seed-deterministic: see :func:`sample_counts`.  The finite-shot readout
    decodes it through the same ``*_batched`` read-outs as exact
    probabilities.
    """
    counts = sample_counts(state, n_shots, rng=rng)
    return counts / float(n_shots)
