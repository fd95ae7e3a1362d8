"""The :class:`Statevector` container.

A thin, validated wrapper around the complex amplitude vector with the
operations the rest of the stack needs: gate application, normalisation,
probabilities and fidelity.  Heavier lifting (encoding, measurement layers,
gradients) lives in the sibling modules and operates on raw arrays for speed;
this class is the user-facing entry point.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.quantum.gates import apply_matrix


class Statevector:
    """An ``n``-qubit pure state.

    Parameters
    ----------
    amplitudes:
        Complex vector of length ``2**n``.  Normalised on construction unless
        ``normalize=False`` (in which case it must already have unit norm).
    """

    def __init__(self, amplitudes, normalize: bool = True) -> None:
        data = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
        n_qubits = int(np.log2(data.size))
        if 2**n_qubits != data.size:
            raise ValueError(f"amplitude length {data.size} is not a power of two")
        norm = np.linalg.norm(data)
        if norm == 0:
            raise ValueError("cannot build a state from the zero vector")
        if normalize:
            data = data / norm
        elif not np.isclose(norm, 1.0, atol=1e-9):
            raise ValueError(f"state is not normalised (norm={norm})")
        self._data = data
        self._n_qubits = n_qubits

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def zero_state(cls, n_qubits: int) -> "Statevector":
        """Return the computational basis state ``|0...0>``."""
        if n_qubits <= 0:
            raise ValueError("n_qubits must be positive")
        data = np.zeros(2**n_qubits, dtype=np.complex128)
        data[0] = 1.0
        return cls(data, normalize=False)

    @classmethod
    def basis_state(cls, n_qubits: int, index: int) -> "Statevector":
        """Return the computational basis state ``|index>``."""
        if not 0 <= index < 2**n_qubits:
            raise ValueError("basis index out of range")
        data = np.zeros(2**n_qubits, dtype=np.complex128)
        data[index] = 1.0
        return cls(data, normalize=False)

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    @property
    def n_qubits(self) -> int:
        return self._n_qubits

    @property
    def amplitudes(self) -> np.ndarray:
        """The underlying complex amplitude vector (no copy)."""
        return self._data

    def probabilities(self) -> np.ndarray:
        """Measurement probabilities of every computational basis state."""
        return np.abs(self._data) ** 2

    def norm(self) -> float:
        """Euclidean norm of the amplitude vector (1 for a valid state)."""
        return float(np.linalg.norm(self._data))

    # ------------------------------------------------------------------ #
    # operations
    # ------------------------------------------------------------------ #
    def apply(self, matrix: np.ndarray, targets: Sequence[int]) -> "Statevector":
        """Return the state after applying ``matrix`` to ``targets`` qubits."""
        new = apply_matrix(self._data, matrix, targets, self._n_qubits)
        return Statevector(new, normalize=False)

    def fidelity(self, other: "Statevector") -> float:
        """Squared overlap ``|<self|other>|^2`` with another state."""
        if other.n_qubits != self.n_qubits:
            raise ValueError("states have different qubit counts")
        return float(np.abs(np.vdot(self._data, other._data)) ** 2)

    def expectation_z(self, qubit: int) -> float:
        """Expectation value of Pauli-Z on ``qubit``."""
        from repro.quantum.measurement import z_expectations

        return float(z_expectations(self._data, [qubit], self._n_qubits)[0])

    def __len__(self) -> int:
        return self._data.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Statevector(n_qubits={self._n_qubits})"
