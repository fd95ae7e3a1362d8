"""Compare the three QuGeoData scaling methods (the Figure 5/6 story).

The script builds a small synthetic dataset, scales the held-out samples
with D-Sample (nearest neighbour), Q-D-FW (physics-guided forward
modelling) and Q-D-CNN (the learned compressor, one pass over the split),
and prints how faithful the first scaled waveform is to the physics-guided
reference — before and after the normalisation imposed by amplitude
encoding.

Run with::

    python examples/data_scaling_comparison.py
"""

from __future__ import annotations

import numpy as np

from repro.core import CNNScaler, DSampleScaler, ForwardModelingScaler
from repro.core.config import QuGeoDataConfig
from repro.data import build_flatvel_dataset
from repro.metrics import ssim
from repro.quantum.encoding import STEncoder
from repro.utils.tables import format_table


def main() -> None:
    print("Generating data and training the Q-D-CNN compressor...")
    dataset = build_flatvel_dataset(n_samples=14, velocity_shape=(32, 32),
                                    n_time_steps=240, n_sources=2, rng=1)
    compressor_split, evaluation_split = dataset[:10], dataset[10:]

    config = QuGeoDataConfig(scaled_seismic_shape=(1, 16, 8),
                             scaled_velocity_shape=(8, 8))
    forward_scaler = ForwardModelingScaler(config, simulation_shape=(24, 24),
                                           simulation_steps=192)
    scalers = {
        "D-Sample": DSampleScaler(config),
        "Q-D-FW": forward_scaler,
        "Q-D-CNN": CNNScaler.train(compressor_split, config=config,
                                   reference_scaler=forward_scaler,
                                   epochs=25, rng=1),
    }

    encoder = STEncoder(n_groups=1, qubits_per_group=7)
    sample = evaluation_split[0]
    n_time = config.scaled_seismic_shape[0] * config.scaled_seismic_shape[1]
    n_receivers = config.scaled_seismic_shape[2]

    reference = forward_scaler.scale_sample(sample).seismic.reshape(n_time,
                                                                    n_receivers)
    reference_norm = encoder.normalized_view(reference.reshape(-1)).reshape(
        n_time, n_receivers)

    rows = []
    for name, scaler in scalers.items():
        scaled = scaler.scale_dataset(evaluation_split)[0]
        waveform = scaled.seismic.reshape(n_time, n_receivers)
        raw_score = ssim(waveform, reference,
                         data_range=float(np.ptp(reference)) or 1.0)
        normalised = encoder.normalized_view(waveform.reshape(-1)).reshape(
            n_time, n_receivers)
        quantum_score = ssim(normalised, reference_norm,
                             data_range=float(np.ptp(reference_norm)) or 1.0)
        rows.append([name, raw_score, quantum_score,
                     float(scaled.velocity.min()), float(scaled.velocity.max())])

    print(format_table(
        ["method", "waveform SSIM vs Q-D-FW", "after quantum normalisation",
         "velocity min", "velocity max"],
        rows,
        title="Scaled-data fidelity (the paper's Figure 6 reports "
              "D-Sample 0.0597 vs Q-D-CNN 0.9255 before normalisation)"))
    print("\nInterpretation: naive nearest-neighbour decimation destroys the "
          "waveform's physical coherence, while re-simulating on the coarse "
          "velocity model (Q-D-FW) or learning that mapping (Q-D-CNN) keeps "
          "the physics the inversion needs.")


if __name__ == "__main__":
    main()
