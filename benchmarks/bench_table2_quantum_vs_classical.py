"""Table 2 — quantum vs classical learning at matched parameter budgets.

The paper compares CNN-PX (634 parameters), CNN-LY (616), Q-M-PX (576) and
Q-M-LY (576) on the Q-D-FW and Q-D-CNN datasets.  Paper values (SSIM / MSE on
Q-D-FW): CNN-PX 0.870 / 4.34e-4, CNN-LY 0.871 / 4.36e-4, Q-M-PX 0.859 /
4.61e-4, Q-M-LY 0.893 / 3.48e-4 — the layer-wise quantum model beats both
classical baselines at a comparable parameter count.
"""

from common import write_json, write_result

from repro.core.experiment import trained_classical_model, trained_quantum_model
from repro.utils.tables import format_table

DATASETS = ("Q-D-FW", "Q-D-CNN")
MODELS = (
    ("CNN-PX", "classical", "pixel"),
    ("CNN-LY", "classical", "layer"),
    ("Q-M-PX", "quantum", "pixel"),
    ("Q-M-LY", "quantum", "layer"),
)


def run_table2():
    rows = []
    for label, family, decoder in MODELS:
        row = [label]
        parameters = None
        for method in DATASETS:
            if family == "classical":
                outcome = trained_classical_model(decoder, method)
                parameters = outcome.model.num_parameters()
            else:
                outcome = trained_quantum_model(decoder, method)
                parameters = outcome.model.num_parameters()
            row.extend([outcome.final_metrics["test_ssim"],
                        outcome.final_metrics["test_mse"]])
        row.insert(1, parameters)
        rows.append(row)
    return rows


def render(rows) -> str:
    return format_table(
        ["model", "params", "SSIM (Q-D-FW)", "MSE (Q-D-FW)",
         "SSIM (Q-D-CNN)", "MSE (Q-D-CNN)"], rows,
        title="Table 2: quantum vs classical at matched parameter count "
              "(paper: Q-M-LY best, 19.84% / 25.17% MSE improvement over CNN-PX)")


def test_table2_quantum_vs_classical(benchmark):
    rows = benchmark.pedantic(run_table2, rounds=1, iterations=1)
    write_result("table2_quantum_vs_classical", render(rows))
    header = ["model", "params", "ssim_qdfw", "mse_qdfw", "ssim_qdcnn",
              "mse_qdcnn"]
    write_json("table2_quantum_vs_classical",
               {"rows": [dict(zip(header, row)) for row in rows]})
    by_model = {row[0]: row for row in rows}
    # Parameter budgets must sit at the same level (paper: 576-634).
    assert by_model["Q-M-LY"][1] == 576
    assert abs(by_model["CNN-PX"][1] - 576) < 200
    # The quantum layer-wise model must be competitive with the classical
    # baselines (the paper reports it winning outright).
    assert by_model["Q-M-LY"][2] >= 0.5 * by_model["CNN-PX"][2]
