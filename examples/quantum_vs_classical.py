"""Quantum vs classical learning at a matched parameter budget (Table 2 story).

Trains the paper's 576-parameter layer-wise QuGeoVQC (Q-M-LY) and the
CNN-LY baseline on the same physics-guided (Q-D-FW) scaled dataset through
the experiment harness the Table 2 benchmark uses, then compares SSIM / MSE
and parameter counts.  ``QUGEO_BENCH_SCALE`` picks the dataset and epoch
budget (``small`` by default).

Run with::

    python examples/quantum_vs_classical.py
"""

from __future__ import annotations

from repro.core.experiment import trained_classical_model, trained_quantum_model
from repro.utils.tables import format_table


def main() -> None:
    print("Training Q-M-LY and CNN-LY on Q-D-FW scaled data...")
    rows = []
    for label, outcome in (
            ("Q-M-LY", trained_quantum_model("layer", "Q-D-FW")),
            ("CNN-LY", trained_classical_model("layer", "Q-D-FW"))):
        rows.append([label, outcome.model.num_parameters(),
                     outcome.final_metrics["test_ssim"],
                     outcome.final_metrics["test_mse"]])
    print(format_table(["model", "parameters", "SSIM", "MSE"], rows,
                       title="Quantum vs classical at a matched parameter "
                             "budget (paper Table 2: Q-M-LY 0.893 vs CNN-LY "
                             "0.871 SSIM on Q-D-FW)"))


if __name__ == "__main__":
    main()
