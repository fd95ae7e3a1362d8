"""Self-tests of the benchmark: ``python3 perfbench/selftest.py`` from the root.

They run the benchmark itself at tiny sizes (a few seconds per run) and
check the parts a wrong benchmark would get wrong quietly: the metric
catalogue against ``BENCHMARK.json``, the output contract, wrappers absent
from timed jobs, a corrupted output counted as a failure, and a directory
without the package source refused without a result.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from checks import (  # noqa: E402
    DEFAULT_SEED,
    GOLDEN,
    Gate,
    check_gathers,
    check_golden,
    check_identical,
    check_maps,
)
from metrics import END_TO_END, ENTRY_POINTS, PER_LAYER, WORKLOADS  # noqa: E402
from run import parse_importtime  # noqa: E402
from tracing import WRAPPED, Tracer, installed_wrappers  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--size", "tiny", "--seed",
         str(DEFAULT_SEED), "--seconds", "0.5"] + list(args),
        cwd=str(cwd), capture_output=True, text=True, timeout=180)


def result_of(completed: subprocess.CompletedProcess) -> dict:
    if completed.returncode != 0:
        raise AssertionError(f"exit {completed.returncode}: "
                             f"{completed.stderr[-2000:]}")
    return json.loads(completed.stdout.splitlines()[-1])


class CatalogueTest(unittest.TestCase):
    def test_benchmark_json_matches_catalogue(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(WORKLOADS))
        for section, table in (("end_to_end", END_TO_END),
                               ("per_layer", PER_LAYER)):
            self.assertEqual(
                [(m["name"], m["unit"], m["better"]) for m in spec[section]],
                [(m.name, m.unit, m.better) for m in table])
        for metric in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(metric["name"], NAME)
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("lower", "higher"))
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_every_entry_point_is_wrapped(self):
        self.assertEqual([prefix for prefix, _, _ in ENTRY_POINTS],
                         list(WRAPPED))


class CheckTest(unittest.TestCase):
    def test_corrupted_arrays_fail(self):
        gate = Gate()
        good = np.full((2, 3), 0.5)
        check_gathers(gate, [good, np.array([np.nan])], "gather")
        check_maps(gate, [good * 4000, good * 10000], 1500.0, 4500.0, "map")
        flipped = good.copy()
        flipped[0, 0] = np.nextafter(0.5, 1.0)
        check_identical(gate, [good, flipped], [good, good], "warm")
        self.assertEqual((gate.attempted, gate.failed), (7, 3))

    def test_golden_only_for_the_default_seed(self):
        pins = GOLDEN[("fit_paper", "tiny")]
        wrong = {key: value * 2 for key, value in pins.items()}
        gate = Gate()
        check_golden(gate, "fit_paper", "tiny", DEFAULT_SEED + 1, wrong)
        self.assertEqual(gate.attempted, 0)
        check_golden(gate, "fit_paper", "tiny", DEFAULT_SEED, pins)
        check_golden(gate, "fit_paper", "tiny", DEFAULT_SEED, wrong)
        self.assertEqual((gate.attempted, gate.failed),
                         (2 * len(pins), len(pins)))

    def test_parse_importtime(self):
        sample = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       303 |        303 |   repro",
            "import time:       407 |     293887 |     scipy.ndimage",
            "import time:      4615 |     544585 | repro.core",
        ])
        self.assertEqual(parse_importtime(sample),
                         {"repro_core": 0.544585, "scipy_ndimage": 0.293887})


class TracerTest(unittest.TestCase):
    def test_install_and_restore_put_back_the_originals(self):
        from tracing import _owner

        def current():
            return {prefix: _owner(module, cls).__dict__[attribute]
                    for prefix, (module, cls, attribute, _) in WRAPPED.items()}

        before = current()
        self.assertEqual(installed_wrappers(), [])
        with Tracer():
            self.assertEqual(installed_wrappers(), list(WRAPPED))
        self.assertEqual(installed_wrappers(), [])
        after = current()
        for prefix in WRAPPED:
            self.assertIs(after[prefix], before[prefix])

    def test_self_time_excludes_wrapped_callees(self):
        tracer = Tracer()
        inner = tracer._wrap("quantum.predict", lambda: time.sleep(0.01), None)
        outer = tracer._wrap("quantum.predict_batch",
                             lambda: [inner() for _ in range(3)], None)
        outer()
        batch = tracer.stats["quantum.predict_batch"]
        single = tracer.stats["quantum.predict"]
        self.assertEqual((batch.calls, single.calls), (1, 3))
        self.assertGreaterEqual(single.total, 0.03)
        self.assertAlmostEqual(batch.self_time, batch.total - single.total)
        self.assertEqual(tracer.covered, batch.total)


class BenchRunTest(unittest.TestCase):
    """Tiny-size runs of the real command."""

    # Entry points each workload must reach; every entry point outside a
    # workload's ``on`` list must read 0 calls there.
    BUSY = {
        "fit_paper": ("data.build_chunk", "seismic.model_shots",
                      "quantum.loss_and_gradients_batch", "training.train",
                      "nn.adam_step", "framework.predict_dataset"),
        "flatvel_store": ("seismic.model_shots_batch", "store.write_shard",
                          "store.read_shard", "store.verify_shard",
                          "scaling.scale_sample"),
        "serve_cnn": ("serialization.load_checkpoint", "nn.cnn_compress",
                      "quantum.predict", "framework.predict_dataset"),
    }

    def assert_metrics(self, result: dict, table) -> dict:
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m.name for m in table})
        for metric in table:
            value = metrics[metric.name]
            self.assertEqual(value["unit"], metric.unit)
            self.assertTrue(math.isfinite(value["value"]), metric.name)
        return {name: value["value"] for name, value in metrics.items()}

    def test_smoke_every_workload(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=0):
                result = result_of(run_bench("--workload", workload,
                                             "--trace", "0"))
                self.assertTrue(result["correct"])
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(result["failed"], 0)
                values = self.assert_metrics(result, END_TO_END)
                self.assertTrue(all(v > 0 for v in values.values()))
            with self.subTest(workload=workload, trace=1):
                # The traced run alternates untraced and traced jobs; the
                # untraced ones fail the gate if any wrapper is installed.
                result = result_of(run_bench("--workload", workload,
                                             "--trace", "1"))
                self.assertTrue(result["correct"])
                values = self.assert_metrics(result, PER_LAYER)
                self.assertEqual(values["failed_fraction"], 0.0)
                for prefix in self.BUSY[workload]:
                    self.assertGreater(values[f"{prefix}.calls"], 0, prefix)
                for prefix, _, on in ENTRY_POINTS:
                    if workload not in on:
                        self.assertEqual(values[f"{prefix}.calls"], 0, prefix)

    def test_corrupted_output_raises_failed_fraction(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = result_of(run_bench("--workload", workload,
                                             "--trace", "1", "--fault"))
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertGreater(result["metrics"]["failed_fraction"]
                                   ["value"], 0.0)

    def test_directory_without_the_package_is_refused(self):
        scratch = ROOT / ".perfbench-tmp"
        scratch.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=str(scratch)))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            completed = run_bench("--workload", "fit_paper", "--trace", "0",
                                  cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(completed.returncode, 0)
        self.assertEqual(completed.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
