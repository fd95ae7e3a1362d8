"""Figure 5 — Q-M-PX performance on the three QuGeoData scalings.

The paper's Figure 5 trains the pixel-wise VQC (Q-M-PX) on data scaled by
D-Sample, Q-D-FW and Q-D-CNN and reports (a) the SSIM/MSE of the trained
models, (b)-(c) the SSIM and MSE convergence during training.  Paper values:
SSIM 0.800 (D-Sample), 0.859 (Q-D-FW), 0.862 (Q-D-CNN); the physics-guided
scalings clearly dominate the naive baseline.
"""

from common import write_json, write_result

from repro.core.experiment import SCALING_METHODS, trained_quantum_model
from repro.utils.tables import format_table


def run_figure5():
    """Train Q-M-PX on every scaling and collect the Figure 5 series."""
    results = {}
    for method in SCALING_METHODS:
        outcome = trained_quantum_model("pixel", method)
        results[method] = {
            "ssim": outcome.final_metrics["test_ssim"],
            "mse": outcome.final_metrics["test_mse"],
            "ssim_history": outcome.history("test_ssim"),
            "mse_history": outcome.history("test_mse"),
        }
    return results


def render(results) -> str:
    rows = [[method, values["ssim"], values["mse"]]
            for method, values in results.items()]
    table = format_table(["dataset", "SSIM (Q-M-PX)", "MSE (Q-M-PX)"], rows,
                         title="Figure 5(a): Q-M-PX on each data scaling "
                               "(paper: D-Sample 0.800, Q-D-FW 0.859, Q-D-CNN 0.862)")
    convergence = []
    for method, values in results.items():
        series = ", ".join(f"{v:.3f}" for v in values["ssim_history"])
        convergence.append(f"Figure 5(b) SSIM convergence [{method}]: {series}")
        series = ", ".join(f"{v:.5f}" for v in values["mse_history"])
        convergence.append(f"Figure 5(c) MSE convergence  [{method}]: {series}")
    return table + "\n\n" + "\n".join(convergence)


def test_fig5_data_scaling(benchmark):
    results = benchmark.pedantic(run_figure5, rounds=1, iterations=1)
    write_result("fig5_data_scaling", render(results))
    write_json("fig5_data_scaling", {"results": results})
    # The headline claim of Figure 5: physics-guided scaling outperforms the
    # naive nearest-neighbour baseline.
    best_physics = max(results["Q-D-FW"]["ssim"], results["Q-D-CNN"]["ssim"])
    assert best_physics >= results["D-Sample"]["ssim"] - 0.05
