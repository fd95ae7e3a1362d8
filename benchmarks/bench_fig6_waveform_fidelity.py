"""Figure 6 — fidelity of the scaled seismic data.

The paper visualises the scaled waveforms of the three methods and reports
the SSIM between each method's data and the physics-guided reference
(Q-D-FW): D-Sample 0.0597, Q-D-CNN 0.9255 before quantum normalisation, and
0.5253 / 0.9989 after the amplitude-encoding normalisation.  The qualitative
claim is that naive resampling destroys waveform coherence while the CNN
compressor reproduces the physics-guided data almost exactly.
"""

import numpy as np
from common import write_json, write_result

from repro.core.experiment import (
    SCALING_METHODS,
    data_config,
    raw_splits,
    scaler,
    vqc_config,
)
from repro.metrics import ssim
from repro.quantum.encoding import STEncoder
from repro.utils.tables import format_table


def run_figure6():
    """Score every scaling method's waveform against the Q-D-FW reference."""
    _, test, _ = raw_splits()
    sample = test[0]
    config = data_config()
    n_time = config.scaled_seismic_shape[1] * config.scaled_seismic_shape[0]
    n_receivers = config.scaled_seismic_shape[2]

    reference = scaler("Q-D-FW").scale_sample(sample).seismic.reshape(
        n_time, n_receivers)
    encoder = STEncoder(n_groups=vqc_config().n_groups,
                        qubits_per_group=vqc_config().qubits_per_group)
    reference_normalised = encoder.normalized_view(
        reference.reshape(-1)).reshape(n_time, n_receivers)

    rows = []
    for name in SCALING_METHODS:
        scaled = scaler(name).scale_sample(sample).seismic.reshape(n_time, n_receivers)
        raw_ssim = ssim(scaled, reference,
                        data_range=float(np.ptp(reference)) or 1.0)
        normalised = encoder.normalized_view(scaled.reshape(-1)).reshape(
            n_time, n_receivers)
        quantum_ssim = ssim(normalised, reference_normalised,
                            data_range=float(np.ptp(reference_normalised)) or 1.0)
        rows.append((name, raw_ssim, quantum_ssim))
    return rows


def render(rows) -> str:
    return format_table(
        ["method", "SSIM vs Q-D-FW (classical)", "SSIM vs Q-D-FW (after quantum norm)"],
        rows,
        title="Figure 6: scaled-waveform fidelity "
              "(paper: D-Sample 0.0597 -> 0.5253, Q-D-CNN 0.9255 -> 0.9989)")


def test_fig6_waveform_fidelity(benchmark):
    rows = benchmark.pedantic(run_figure6, rounds=1, iterations=1)
    write_result("fig6_waveform_fidelity", render(rows))
    write_json("fig6_waveform_fidelity",
               {"rows": [{"method": name, "raw_ssim": raw,
                          "quantum_ssim": quantum}
                         for name, raw, quantum in rows]})
    scores = {name: raw for name, raw, _ in rows}
    # Q-D-FW against itself is exact; the CNN must resemble it far more than
    # naive down-sampling does.
    assert scores["Q-D-FW"] > 0.999
    assert scores["Q-D-CNN"] > scores["D-Sample"]
