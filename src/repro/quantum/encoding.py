"""Data encoding onto qubit amplitudes.

Three encoders are provided, mirroring the paper:

* :func:`amplitude_encode` — classic amplitude encoding of a real vector of
  length ``2**k`` onto ``k`` qubits (the vector is L2-normalised, which is the
  "data normalisation within quantum state constraints" discussed around
  Figure 6 of the paper).
* :class:`STEncoder` — the spatial-temporal encoder of QuGeoVQC: the input is
  split into groups (one per seismic source, Section 3.2.1), each group is
  amplitude-encoded on its own block of qubits, and the register state is the
  tensor product of the group states.
* :class:`QuBatchEncoder` — QuBatch (Section 3.3): ``2**b`` samples are packed
  into a single register by prepending ``b`` batch qubits per group; the whole
  batched vector is normalised jointly, trading data precision for SIMD-style
  parallel processing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np


def normalize_for_encoding(data: np.ndarray) -> Tuple[np.ndarray, float]:
    """L2-normalise ``data`` and return ``(normalised, norm)``.

    A zero vector is mapped to the basis state ``|0...0>`` (norm reported as
    0) so downstream code never divides by zero.
    """
    data = np.asarray(data, dtype=np.float64).reshape(-1)
    norm = float(np.linalg.norm(data))
    if norm == 0:
        encoded = np.zeros_like(data)
        encoded[0] = 1.0
        return encoded, 0.0
    return data / norm, norm


def amplitude_encode(data: np.ndarray, n_qubits: int = None) -> np.ndarray:
    """Amplitude-encode a real vector onto ``n_qubits`` qubits.

    The vector is zero-padded to the next power of two if needed, then
    L2-normalised.  Returns the complex statevector.
    """
    data = np.asarray(data, dtype=np.float64).reshape(-1)
    if n_qubits is None:
        length = max(2, int(2**np.ceil(np.log2(data.size))))
        n_qubits = int(np.log2(length))
    length = 2**n_qubits
    if data.size > length:
        raise ValueError(f"data of size {data.size} does not fit {n_qubits} qubits")
    padded = np.zeros(length, dtype=np.float64)
    padded[:data.size] = data
    encoded, _ = normalize_for_encoding(padded)
    return encoded.astype(np.complex128)


@dataclass
class STEncoder:
    """Spatial-temporal grouped amplitude encoder.

    Parameters
    ----------
    n_groups:
        Number of encoder groups.  The paper groups seismic data by source so
        each group holds the traces of one physical shot.
    qubits_per_group:
        Number of qubits per group; each group encodes ``2**qubits_per_group``
        values.
    """

    n_groups: int = 1
    qubits_per_group: int = 8

    def __post_init__(self) -> None:
        if self.n_groups <= 0:
            raise ValueError("n_groups must be positive")
        if self.qubits_per_group <= 0:
            raise ValueError("qubits_per_group must be positive")

    @property
    def n_qubits(self) -> int:
        """Total number of data qubits."""
        return self.n_groups * self.qubits_per_group

    @property
    def values_per_group(self) -> int:
        return 2**self.qubits_per_group

    @property
    def capacity(self) -> int:
        """Total number of classical values the encoder accepts."""
        return self.n_groups * self.values_per_group

    def group_qubits(self, group: int) -> Tuple[int, ...]:
        """Qubit indices belonging to ``group`` (0-based)."""
        if not 0 <= group < self.n_groups:
            raise ValueError(f"group {group} out of range")
        start = group * self.qubits_per_group
        return tuple(range(start, start + self.qubits_per_group))

    def split_groups(self, data: np.ndarray) -> List[np.ndarray]:
        """Split a flat data vector into per-group chunks (zero-padded)."""
        data = np.asarray(data, dtype=np.float64).reshape(-1)
        if data.size > self.capacity:
            raise ValueError(
                f"data of size {data.size} exceeds encoder capacity {self.capacity}")
        padded = np.zeros(self.capacity, dtype=np.float64)
        padded[:data.size] = data
        return [padded[g * self.values_per_group:(g + 1) * self.values_per_group]
                for g in range(self.n_groups)]

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Encode ``data`` into the tensor-product state of all groups."""
        groups = self.split_groups(data)
        state = None
        for chunk in groups:
            normalised, _ = normalize_for_encoding(chunk)
            group_state = normalised.astype(np.complex128)
            state = group_state if state is None else np.kron(state, group_state)
        return state

    def normalized_view(self, data: np.ndarray) -> np.ndarray:
        """Return the classically-interpretable data after quantum normalisation.

        This is the quantity visualised in Figure 6(b) of the paper: the data
        each group actually presents to the circuit, i.e. per-group
        L2-normalised values concatenated back into the original layout.
        """
        groups = self.split_groups(data)
        views = [normalize_for_encoding(chunk)[0] for chunk in groups]
        return np.concatenate(views)


@dataclass
class QuBatchEncoder:
    """QuBatch batched amplitude encoder.

    Packs ``batch_size = 2**n_batch_qubits`` samples into one register by
    prepending ``n_batch_qubits`` qubits in front of each data group.  For the
    single-group case used in Table 1 of the paper, the register amplitudes
    are simply the concatenation of all samples, normalised jointly.

    Parameters
    ----------
    encoder:
        The underlying :class:`STEncoder` describing the per-sample layout.
    n_batch_qubits:
        Number of extra qubits; the batch size is ``2**n_batch_qubits``.
    """

    encoder: STEncoder
    n_batch_qubits: int = 1

    def __post_init__(self) -> None:
        if self.n_batch_qubits < 0:
            raise ValueError("n_batch_qubits must be non-negative")

    @property
    def batch_size(self) -> int:
        return 2**self.n_batch_qubits

    @property
    def n_qubits(self) -> int:
        """Total register size: batch qubits for each group plus data qubits."""
        return self.encoder.n_qubits + self.n_batch_qubits * self.encoder.n_groups

    def data_qubits_of_group(self, group: int) -> Tuple[int, ...]:
        """Qubit indices holding the data of ``group`` in the batched register."""
        per_group = self.n_batch_qubits + self.encoder.qubits_per_group
        start = group * per_group + self.n_batch_qubits
        return tuple(range(start, start + self.encoder.qubits_per_group))

    def batch_qubits_of_group(self, group: int) -> Tuple[int, ...]:
        """Batch-index qubit indices of ``group`` in the batched register."""
        per_group = self.n_batch_qubits + self.encoder.qubits_per_group
        start = group * per_group
        return tuple(range(start, start + self.n_batch_qubits))

    def encode(self, batch: Sequence[np.ndarray]) -> np.ndarray:
        """Encode up to ``batch_size`` samples into one register state.

        Missing samples (when ``len(batch) < batch_size``) are zero blocks.
        """
        batch = [np.asarray(sample, dtype=np.float64).reshape(-1) for sample in batch]
        if len(batch) > self.batch_size:
            raise ValueError(
                f"got {len(batch)} samples but batch capacity is {self.batch_size}")
        state = None
        for group in range(self.encoder.n_groups):
            block_size = self.encoder.values_per_group
            stacked = np.zeros(self.batch_size * block_size, dtype=np.float64)
            for b, sample in enumerate(batch):
                chunk = self.encoder.split_groups(sample)[group]
                stacked[b * block_size:(b + 1) * block_size] = chunk
            normalised, _ = normalize_for_encoding(stacked)
            group_state = normalised.astype(np.complex128)
            state = group_state if state is None else np.kron(state, group_state)
        return state
