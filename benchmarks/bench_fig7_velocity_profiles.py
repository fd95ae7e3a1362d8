"""Figure 7 — predicted velocity maps and vertical profiles (Q-M-PX).

The paper visualises the velocity maps predicted by Q-M-PX on the three
scalings and compares vertical velocity profiles at x = 400 m: Q-D-FW and
Q-D-CNN recover more layer interfaces than D-Sample (the paper counts 2/7
correct interface predictions for D-Sample against 3 for the physics-guided
scalings), and their per-sample SSIM is higher (0.9613 vs 0.9742 / 0.9772 on
the showcased sample).
"""

import numpy as np
from common import write_json, write_result

from repro.core.experiment import (
    SCALING_METHODS,
    count_interface_matches,
    scaled_datasets,
    trained_quantum_model,
    vertical_profile,
)
from repro.metrics import ssim
from repro.utils.tables import format_table


def run_figure7():
    """Profile analysis of the trained Q-M-PX models on one test sample."""
    rows = []
    for method in SCALING_METHODS:
        outcome = trained_quantum_model("pixel", method)
        _, test = scaled_datasets(method)
        sample = test[0]
        prediction = outcome.model.predict(sample.seismic.reshape(-1))
        sample_ssim = ssim(prediction, sample.velocity, data_range=1.0)
        truth_profile = vertical_profile(sample.velocity)
        predicted_profile = vertical_profile(prediction)
        matched, total = count_interface_matches(predicted_profile, truth_profile,
                                                 tolerance=0.03)
        rows.append((method, sample_ssim, f"{matched}/{total}",
                     np.round(truth_profile, 3).tolist(),
                     np.round(predicted_profile, 3).tolist()))
    return rows


def render(rows) -> str:
    table = format_table(
        ["dataset", "sample SSIM (Q-M-PX)", "interfaces recovered"],
        [row[:3] for row in rows],
        title="Figure 7: Q-M-PX predictions per scaling "
              "(paper sample SSIM: D-Sample 0.9613, Q-D-CNN 0.9742, Q-D-FW 0.9772)")
    profiles = []
    for method, _, _, truth, predicted in rows:
        profiles.append(f"Figure 7(b) [{method}] ground-truth profile: {truth}")
        profiles.append(f"Figure 7(b) [{method}] predicted profile:    {predicted}")
    return table + "\n\n" + "\n".join(profiles)


def test_fig7_velocity_profiles(benchmark):
    rows = benchmark.pedantic(run_figure7, rounds=1, iterations=1)
    write_result("fig7_velocity_profiles", render(rows))
    write_json("fig7_velocity_profiles",
               {"rows": [{"method": method, "sample_ssim": sample_ssim,
                          "interfaces_recovered": recovered,
                          "truth_profile": truth,
                          "predicted_profile": predicted}
                         for method, sample_ssim, recovered, truth, predicted
                         in rows]})
    # Every profile must be a valid normalised velocity sequence.
    for _, sample_ssim, _, _, predicted in rows:
        assert -1.0 <= sample_ssim <= 1.0
        assert np.all(np.isfinite(predicted))
