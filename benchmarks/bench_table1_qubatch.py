"""Table 1 — QuBatch with different batch sizes.

The paper trains Q-M-LY on Q-D-FW data with QuBatch batch sizes 1, 2 and 4
(0, 1 and 2 extra qubits) and reports SSIM 0.8926, 0.8864 and 0.8678: the
batched circuits stay competitive, with a slight degradation attributed to
the joint-normalisation precision loss.
"""

from common import write_json, write_result

from repro.core.experiment import trained_quantum_model
from repro.utils.tables import format_table

BATCH_QUBITS = (0, 1, 2)


def run_table1():
    rows = []
    baseline_ssim = None
    for n_batch_qubits in BATCH_QUBITS:
        outcome = trained_quantum_model("layer", "Q-D-FW", n_batch_qubits)
        ssim_value = outcome.final_metrics["test_ssim"]
        if baseline_ssim is None:
            baseline_ssim = ssim_value
            degradation = "BL"
        else:
            degradation = f"{(baseline_ssim - ssim_value) / baseline_ssim:+.2%}"
        rows.append(["Q-M-LY", "Q-D-FW", 2**n_batch_qubits if n_batch_qubits else 0,
                     n_batch_qubits, ssim_value, degradation])
    return rows


def render(rows) -> str:
    return format_table(
        ["model", "dataset", "batch", "extra qubits", "SSIM", "vs BL"], rows,
        title="Table 1: QuBatch batch-size study "
              "(paper SSIM: 0.8926 BL, 0.8864 at batch 2, 0.8678 at batch 4)")


def test_table1_qubatch(benchmark):
    rows = benchmark.pedantic(run_table1, rounds=1, iterations=1)
    write_result("table1_qubatch", render(rows))
    header = ["model", "dataset", "batch", "extra_qubits", "ssim", "vs_baseline"]
    write_json("table1_qubatch",
               {"rows": [dict(zip(header, row)) for row in rows]})
    ssims = [row[4] for row in rows]
    # QuBatch must stay in the same quality regime as the unbatched baseline
    # (the paper reports at most a few percent SSIM degradation).
    assert min(ssims) >= 0.5 * max(ssims)
