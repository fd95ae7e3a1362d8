"""JSON and CLI glue shared by the benchmark scripts.

The figure/table benchmarks take their scale tiers, dataset splits,
scalers and trained models from :mod:`repro.core.experiment`; this module
only records results.  Tables are printed and also written to
``benchmarks/results/*.txt`` (human readable) and
``benchmarks/results/*.json`` (machine readable, one payload per benchmark
via :func:`write_json`) so the rows survive pytest's output capturing and
CI can track the perf trajectory across commits.  Scripts with their own
CLI expose the shared ``--json [PATH]`` flag through
:func:`add_json_argument` and pass ``args.json`` to :func:`write_json`.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, Optional, Union

from repro.core.experiment import bench_scale

RESULTS_DIR = Path(__file__).parent / "results"


def write_result(name: str, text: str) -> Path:
    """Print a result table and persist it under ``benchmarks/results``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")
    return path


def _to_jsonable(value):
    """Recursively coerce numpy scalars/arrays so ``json.dump`` accepts them."""
    import numpy as np

    if isinstance(value, dict):
        return {str(key): _to_jsonable(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(entry) for entry in value]
    if isinstance(value, np.ndarray):
        return _to_jsonable(value.tolist())
    if isinstance(value, np.generic):
        return value.item()
    return value


def _git_revision() -> Optional[str]:
    """The working tree's commit sha, or ``None`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(Path(__file__).parent),
            capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def environment_meta() -> Dict[str, object]:
    """Reproducibility metadata embedded in every benchmark JSON."""
    import numpy as np

    return {
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "git_sha": _git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "executable": sys.executable,
    }


def write_json(name: str, payload: Dict, path: Optional[Union[str, Path]] = None
               ) -> Path:
    """Persist one benchmark's machine-readable payload.

    Defaults to ``benchmarks/results/<name>.json``; an explicit ``path``
    (from the shared ``--json`` flag) overrides the destination.  The payload
    is tagged with the benchmark name, the active scale tier and a ``meta``
    block (timestamp, git sha, interpreter/library versions) so a CI
    artifact is self-describing.  When telemetry is recording
    (``QUGEO_TELEMETRY=summary``/``trace``), the registry snapshot rides
    along under ``telemetry``; in ``trace`` mode the span events are also
    written next to the JSON as ``<name>.trace.jsonl``.
    """
    from repro.telemetry import get_telemetry

    if path is None or path == "":
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        path = RESULTS_DIR / f"{name}.json"
    else:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
    document = {"benchmark": name,
                "scale": bench_scale().name,
                "meta": environment_meta()}
    telemetry = get_telemetry()
    if telemetry.enabled:
        document["telemetry"] = telemetry.snapshot()
        if telemetry.tracing:
            trace_path = path.with_suffix(".trace.jsonl")
            telemetry.dump_jsonl(trace_path)
            print(f"[trace written to {trace_path}]")
    document.update(_to_jsonable(payload))
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"[json written to {path}]")
    return path


def add_json_argument(parser) -> None:
    """Attach the shared ``--json [PATH]`` flag to an argparse CLI.

    ``--json`` with no value writes the default
    ``benchmarks/results/<name>.json``; ``--json PATH`` writes to ``PATH``;
    omitting the flag disables JSON output for CLI scripts.
    """
    parser.add_argument("--json", nargs="?", const="", default=None,
                        metavar="PATH",
                        help="write machine-readable results as JSON "
                             "(default path: benchmarks/results/<name>.json)")
