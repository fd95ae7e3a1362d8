"""Configuration dataclasses for the QuGeo framework.

The defaults reproduce the paper's experimental setup: seismic data scaled to
256 values, velocity maps scaled to 8x8, an 8-qubit / 12-block U3+CU3 ansatz
(576 parameters), Adam with initial learning rate 0.1 and cosine annealing
over 500 epochs, and a qubit budget of 16 (the constraint the paper imposes
to match today's superconducting / ion-trap devices).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np


@dataclass
class QuGeoDataConfig:
    """QuGeoData scaling targets.

    Parameters
    ----------
    scaled_seismic_shape:
        ``(n_sources, n_time, n_receivers)`` of the scaled seismic data; the
        product is the number of values encoded on the quantum register (256
        in the paper).
    scaled_velocity_shape:
        ``(depth, width)`` of the scaled velocity map (8x8 in the paper).
    original_peak_frequency:
        Dominant source frequency of the full-resolution dataset in Hz.
    scaled_peak_frequency:
        Source frequency used when re-simulating on the scaled velocity map;
        ``None`` derives it from the time-axis compression (the paper lowers
        15 Hz to 8 Hz).
    velocity_range:
        ``(min, max)`` velocities in m/s used for normalisation.
    """

    scaled_seismic_shape: Tuple[int, int, int] = (4, 8, 8)
    scaled_velocity_shape: Tuple[int, int] = (8, 8)
    original_peak_frequency: float = 15.0
    scaled_peak_frequency: Optional[float] = 8.0
    velocity_range: Tuple[float, float] = (1500.0, 4500.0)
    dx: float = 10.0

    def __post_init__(self) -> None:
        if len(self.scaled_seismic_shape) != 3:
            raise ValueError("scaled_seismic_shape must be (sources, time, receivers)")
        if any(s <= 0 for s in self.scaled_seismic_shape):
            raise ValueError("scaled_seismic_shape entries must be positive")
        if len(self.scaled_velocity_shape) != 2:
            raise ValueError("scaled_velocity_shape must be 2-D")
        if any(s <= 0 for s in self.scaled_velocity_shape):
            raise ValueError("scaled_velocity_shape entries must be positive")
        low, high = self.velocity_range
        if high <= low:
            raise ValueError("velocity_range must be increasing")

    @property
    def scaled_seismic_size(self) -> int:
        """Number of classical values presented to the encoder."""
        return int(np.prod(self.scaled_seismic_shape))

    @property
    def scaled_velocity_size(self) -> int:
        return int(np.prod(self.scaled_velocity_shape))


@dataclass
class QuGeoVQCConfig:
    """QuGeoVQC circuit configuration.

    Parameters
    ----------
    n_groups, qubits_per_group:
        ST-encoder layout; the register has ``n_groups * qubits_per_group``
        data qubits encoding ``n_groups * 2**qubits_per_group`` values.
    n_blocks:
        Number of U3+CU3 ansatz blocks (12 in the paper, giving 576
        parameters on 8 qubits).
    decoder:
        ``"pixel"`` (Q-M-PX, Eq. 2) or ``"layer"`` (Q-M-LY, Eq. 3).
    output_shape:
        Velocity-map shape the decoder regresses.
    n_batch_qubits:
        QuBatch batch qubits per group (0 disables batching).
    max_qubits:
        Hardware qubit budget; construction fails if exceeded (the paper uses
        16 to match near-term devices).

    The configuration names no simulation engine: models run on
    :class:`~repro.backends.EinsumBatchBackend` unless a ``backend``
    instance is passed to them.
    """

    n_groups: int = 1
    qubits_per_group: int = 8
    n_blocks: int = 12
    decoder: str = "layer"
    output_shape: Tuple[int, int] = (8, 8)
    n_batch_qubits: int = 0
    inter_group_blocks: int = 1
    max_qubits: int = 16
    trainable_output_scale: bool = True

    def __post_init__(self) -> None:
        if self.decoder not in ("pixel", "layer"):
            raise ValueError("decoder must be 'pixel' or 'layer'")
        if self.n_groups <= 0 or self.qubits_per_group <= 0:
            raise ValueError("group layout must be positive")
        if self.n_blocks <= 0:
            raise ValueError("n_blocks must be positive")
        if self.n_batch_qubits < 0:
            raise ValueError("n_batch_qubits must be non-negative")
        if len(self.output_shape) != 2 or any(s <= 0 for s in self.output_shape):
            raise ValueError("output_shape must be a positive 2-D shape")
        if self.total_qubits > self.max_qubits:
            raise ValueError(
                f"configuration needs {self.total_qubits} qubits which exceeds "
                f"the budget of {self.max_qubits}")
        if self.decoder == "pixel":
            outputs = int(np.prod(self.output_shape))
            if self.readout_qubits_needed > self.data_qubits:
                raise ValueError(
                    "pixel decoder needs enough data qubits to read "
                    f"{outputs} amplitudes")
        else:
            if self.output_shape[0] > self.data_qubits:
                raise ValueError(
                    "layer decoder needs one data qubit per velocity-map row")

    @property
    def data_qubits(self) -> int:
        """Number of qubits carrying seismic data."""
        return self.n_groups * self.qubits_per_group

    @property
    def total_qubits(self) -> int:
        """Register size including QuBatch batch qubits."""
        return self.data_qubits + self.n_batch_qubits * self.n_groups

    @property
    def input_size(self) -> int:
        """Number of classical values the encoder accepts."""
        return self.n_groups * 2**self.qubits_per_group

    @property
    def readout_qubits_needed(self) -> int:
        """Data qubits read by the pixel decoder."""
        outputs = int(np.prod(self.output_shape))
        return int(np.ceil(np.log2(outputs)))

    @property
    def batch_size(self) -> int:
        """QuBatch batch capacity."""
        return 2**self.n_batch_qubits


@dataclass
class TrainingConfig:
    """Optimiser settings shared by quantum and classical trainers.

    The paper trains every model for 500 epochs with Adam, an initial
    learning rate of 0.1 and cosine annealing.  The reproduction exposes all
    of it so tests and benches can run shorter schedules.

    ``eval_batch_size`` bounds how many samples run through the model at
    once during test-set evaluation (peak-memory control for large test
    sets); ``None`` evaluates in a single pass.

    ``nan_policy`` decides what a non-finite mini-batch loss does:
    ``"stop"`` (default) halts the run before the poisoned optimiser update
    is applied and records a ``nan_loss`` flag in the metric history;
    ``"raise"`` raises :class:`FloatingPointError` instead.
    """

    epochs: int = 500
    learning_rate: float = 0.1
    batch_size: int = 8
    eta_min: float = 1e-4
    seed: int = 0
    verbose: bool = False
    eval_every: int = 10
    eval_batch_size: Optional[int] = 256
    nan_policy: str = "stop"

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.eval_every <= 0:
            raise ValueError("eval_every must be positive")
        if self.eval_batch_size is not None and self.eval_batch_size <= 0:
            raise ValueError("eval_batch_size must be positive or None")
        if self.nan_policy not in ("stop", "raise"):
            raise ValueError("nan_policy must be 'stop' or 'raise'")


@dataclass
class QuGeoConfig:
    """End-to-end framework configuration bundling the three components."""

    data: QuGeoDataConfig = field(default_factory=QuGeoDataConfig)
    vqc: QuGeoVQCConfig = field(default_factory=QuGeoVQCConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    scaling_method: str = "forward_modeling"

    def __post_init__(self) -> None:
        if self.scaling_method not in ("d_sample", "forward_modeling", "cnn"):
            raise ValueError(
                "scaling_method must be 'd_sample', 'forward_modeling' or 'cnn'")
        if self.data.scaled_seismic_size > self.vqc.input_size:
            raise ValueError(
                f"scaled seismic size {self.data.scaled_seismic_size} exceeds the "
                f"encoder capacity {self.vqc.input_size}")
        if tuple(self.data.scaled_velocity_shape) != tuple(self.vqc.output_shape):
            raise ValueError("data and VQC disagree on the velocity-map shape")


# --------------------------------------------------------------------------- #
# (de)serialisation — saved pipelines and checkpoints embed their config
# --------------------------------------------------------------------------- #
def config_to_dict(config: QuGeoConfig) -> dict:
    """Plain-dict form of a :class:`QuGeoConfig` (for checkpoints/pipelines)."""
    from dataclasses import asdict
    return asdict(config)


def config_from_dict(payload: dict) -> QuGeoConfig:
    """Rebuild a :class:`QuGeoConfig` from :func:`config_to_dict` output.

    Files written by older versions may carry ``vqc.backend`` (an engine
    name) and ``training.dtype`` (a precision the trainer never applied);
    both settings are gone and their keys are dropped.
    """
    def _clean(section: dict, legacy: str = "") -> dict:
        return {key: (tuple(value) if isinstance(value, list) else value)
                for key, value in section.items() if key != legacy}

    return QuGeoConfig(
        data=QuGeoDataConfig(**_clean(payload["data"])),
        vqc=QuGeoVQCConfig(**_clean(payload["vqc"], "backend")),
        training=TrainingConfig(**_clean(payload["training"], "dtype")),
        scaling_method=str(payload["scaling_method"]),
    )
