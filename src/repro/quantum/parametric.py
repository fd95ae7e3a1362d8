"""Parameterised gates with analytic parameter derivatives.

Each gate family is described by a :class:`ParametricGate` built from two
vectorised constructors: one maps per-parameter value arrays to a stack of
unitaries ``(..., 2^k, 2^k)``, the other to the stack of their parameter
derivatives ``(..., n_params, 2^k, 2^k)``.  The scalar forms
(:func:`u3_matrix`, ``gate.matrix(params)``, ``gate.derivatives(params)``)
are the same constructors on 0-d inputs, so each gate's formula has one
source of truth.  The reverse-mode differentiation in
:mod:`repro.quantum.autodiff` builds every op's matrix and derivative for a
parameter vector with one call per gate family, so no finite differences or
parameter-shift evaluations are needed during training.

The ansatz of the paper uses the TorchQuantum ``U3 + CU3`` block: a general
single-qubit rotation ``U3(theta, phi, lambda)`` on every qubit followed by a
ring of controlled ``CU3`` gates, each carrying three parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.quantum.gates import GATES

_ONE = np.diag([0.0, 1.0])  # projector on |1>


def _angles(*columns) -> List[np.ndarray]:
    return [np.asarray(column, dtype=np.float64) for column in columns]


def rotation_stack(generator: np.ndarray) -> Callable[..., np.ndarray]:
    """``theta -> exp(-i theta G / 2) = cos(theta/2) I - i sin(theta/2) G``
    for an involutory generator ``G``, over an array of angles."""
    def stack(theta) -> np.ndarray:
        (half,) = _angles(theta)
        half = half[..., None, None] / 2
        return np.cos(half) * GATES["I"] - 1j * np.sin(half) * generator
    return stack


def half_turn_derivative(stack: Callable[..., np.ndarray]
                         ) -> Callable[..., np.ndarray]:
    """``dU/dtheta = U(theta + pi) / 2`` for a gate whose only parameter is
    the angle of ``cos(theta/2)``/``sin(theta/2)``, as ``(..., 1, d, d)``."""
    def derivative(theta) -> np.ndarray:
        (theta,) = _angles(theta)
        return 0.5 * stack(theta + np.pi)[..., None, :, :]
    return derivative


rx_stack = rotation_stack(GATES["X"])
ry_stack = rotation_stack(GATES["Y"])
rz_stack = rotation_stack(GATES["Z"])


def u3_stack(theta, phi, lam) -> np.ndarray:
    """General single-qubit unitary ``U3(theta, phi, lam)`` (OpenQASM convention)."""
    theta, phi, lam = _angles(theta, phi, lam)
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    out = np.empty(np.broadcast_shapes(theta.shape, phi.shape, lam.shape)
                   + (2, 2), dtype=np.complex128)
    out[..., 0, 0] = c
    out[..., 0, 1] = -np.exp(1j * lam) * s
    out[..., 1, 0] = np.exp(1j * phi) * s
    out[..., 1, 1] = np.exp(1j * (phi + lam)) * c
    return out


def u3_derivative_stack(theta, phi, lam) -> np.ndarray:
    """Partial derivatives of :func:`u3_stack` w.r.t. theta, phi, lam.

    ``phi`` and ``lam`` enter as phases on ``|1>`` before and after the
    rotation, so their derivatives are ``i P1 U`` and ``i U P1``.
    """
    theta, phi, lam = _angles(theta, phi, lam)
    u = u3_stack(theta, phi, lam)
    return np.stack([0.5 * u3_stack(theta + np.pi, phi, lam),
                     1j * (_ONE @ u), 1j * (u @ _ONE)], axis=-3)


def controlled_stack(block: np.ndarray, identity: bool = True) -> np.ndarray:
    """Embed ``(..., 2, 2)`` blocks as the control=1 block of ``(..., 4, 4)``.

    ``identity=False`` leaves the control=0 block zero, which embeds the
    derivative of a controlled gate.
    """
    out = np.zeros(block.shape[:-2] + (4, 4), dtype=np.complex128)
    if identity:
        out[..., 0, 0] = out[..., 1, 1] = 1.0
    out[..., 2:, 2:] = block
    return out


def cu3_stack(theta, phi, lam) -> np.ndarray:
    """Controlled-U3 on (control, target): identity block plus ``U3`` block."""
    return controlled_stack(u3_stack(theta, phi, lam))


def crx_stack(theta) -> np.ndarray:
    """Controlled-RX on (control, target)."""
    return controlled_stack(rx_stack(theta))


@dataclass(frozen=True)
class ParametricGate:
    """Description of a parameterised gate family.

    Attributes
    ----------
    name:
        Gate identifier used in circuit programs.
    n_qubits:
        Number of qubits the gate acts on.
    n_params:
        Number of real parameters.
    stack_fn:
        Vectorised constructor ``(*param_columns) -> (..., 2^k, 2^k)``
        building one matrix per entry of the parameter columns.
    derivative_stack_fn:
        Vectorised ``(*param_columns) -> (..., n_params, 2^k, 2^k)``
        parameter derivatives, one set per entry.
    """

    name: str
    n_qubits: int
    n_params: int
    stack_fn: Callable[..., np.ndarray]
    derivative_stack_fn: Callable[..., np.ndarray]

    def _check(self, count: int) -> None:
        if count != self.n_params:
            raise ValueError(f"{self.name} expects {self.n_params} parameters, "
                             f"got {count}")

    def matrix(self, params: Sequence[float]) -> np.ndarray:
        """The unitary for one parameter set."""
        return self.matrix_stack(params)

    def derivatives(self, params: Sequence[float]) -> List[np.ndarray]:
        """``[dU/d(param_i)]`` for one parameter set."""
        return list(self.derivative_stack(params))

    def matrix_stack(self, columns: Sequence[np.ndarray]) -> np.ndarray:
        """One gate matrix per entry of the per-parameter value arrays."""
        self._check(len(columns))
        return self.stack_fn(*columns)

    def derivative_stack(self, columns: Sequence[np.ndarray]) -> np.ndarray:
        """``(..., n_params, 2^k, 2^k)`` derivatives, one set per entry."""
        self._check(len(columns))
        return self.derivative_stack_fn(*columns)


PARAMETRIC_GATES: Dict[str, ParametricGate] = {
    gate.name: gate for gate in (
        ParametricGate("RX", 1, 1, rx_stack, half_turn_derivative(rx_stack)),
        ParametricGate("RY", 1, 1, ry_stack, half_turn_derivative(ry_stack)),
        ParametricGate("RZ", 1, 1, rz_stack, half_turn_derivative(rz_stack)),
        ParametricGate("U3", 1, 3, u3_stack, u3_derivative_stack),
        ParametricGate(
            "CU3", 2, 3, cu3_stack,
            lambda *p: controlled_stack(u3_derivative_stack(*p), False)),
        ParametricGate(
            "CRX", 2, 1, crx_stack,
            lambda t: controlled_stack(half_turn_derivative(rx_stack)(t),
                                       False)),
    )
}

# The one-matrix forms ``params -> U``.
rx_matrix, ry_matrix, rz_matrix, u3_matrix, cu3_matrix, crx_matrix = (
    PARAMETRIC_GATES[name].matrix
    for name in ("RX", "RY", "RZ", "U3", "CU3", "CRX"))
