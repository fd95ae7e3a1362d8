"""Figure 9 — layer-wise decoder predictions and vertical profiles.

The paper visualises Q-M-LY (with Q-D-FW and with D-Sample) against Q-M-PX
(with Q-D-FW) on a showcased sample: Q-M-LY + Q-D-FW predicts all layer
interfaces with the correct relative layer ordering (sample SSIM 0.9854),
while Q-M-PX misses interfaces (0.9492) and Q-M-LY on D-Sample confuses the
relative ordering of some layers (0.9606).
"""

import numpy as np
from common import write_json, write_result

from repro.core.experiment import (
    count_interface_matches,
    scaled_datasets,
    trained_quantum_model,
    vertical_profile,
)
from repro.metrics import ssim
from repro.utils.tables import format_table

CASES = (
    ("Q-M-PX", "pixel", "Q-D-FW"),
    ("Q-M-LY", "layer", "Q-D-FW"),
    ("Q-M-LY", "layer", "D-Sample"),
)


def run_figure9():
    rows = []
    for label, decoder, method in CASES:
        outcome = trained_quantum_model(decoder, method)
        _, test = scaled_datasets(method)
        sample = test[0]
        prediction = outcome.model.predict(sample.seismic.reshape(-1))
        sample_ssim = ssim(prediction, sample.velocity, data_range=1.0)
        truth = vertical_profile(sample.velocity)
        predicted = vertical_profile(prediction)
        matched, total = count_interface_matches(predicted, truth, tolerance=0.03)
        rows.append((f"{label} + {method}", sample_ssim, f"{matched}/{total}",
                     np.round(truth, 3).tolist(), np.round(predicted, 3).tolist()))
    return rows


def render(rows) -> str:
    table = format_table(
        ["configuration", "sample SSIM", "interfaces recovered"],
        [row[:3] for row in rows],
        title="Figure 9: layer-wise decoder predictions "
              "(paper sample SSIM: PX+Q-D-FW 0.9492, LY+D-Sample 0.9606, "
              "LY+Q-D-FW 0.9854)")
    profiles = []
    for name, _, _, truth, predicted in rows:
        profiles.append(f"Figure 9(b) [{name}] ground-truth profile: {truth}")
        profiles.append(f"Figure 9(b) [{name}] predicted profile:    {predicted}")
    return table + "\n\n" + "\n".join(profiles)


def test_fig9_layerwise_profiles(benchmark):
    rows = benchmark.pedantic(run_figure9, rounds=1, iterations=1)
    write_result("fig9_layerwise_profiles", render(rows))
    write_json("fig9_layerwise_profiles",
               {"rows": [{"configuration": name, "sample_ssim": sample_ssim,
                          "interfaces_recovered": recovered,
                          "truth_profile": truth,
                          "predicted_profile": predicted}
                         for name, sample_ssim, recovered, truth, predicted
                         in rows]})
    by_name = {name: sample_ssim for name, sample_ssim, *_ in rows}
    # The layer-wise decoder with physics-guided data is the best of the three
    # configurations in the paper; allow a small tolerance at reduced scale.
    assert by_name["Q-M-LY + Q-D-FW"] >= by_name["Q-M-PX + Q-D-FW"] - 0.05
