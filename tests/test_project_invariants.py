"""Project invariants, checked on the source tree with :mod:`ast`.

Each file rule is a plain function ``(tree, rel_path) -> [line numbers]``
that returns where ``tree`` (the parse of the project-relative
``rel_path``) breaks the invariant.  The tree tests run every rule over
``src``, ``benchmarks`` and ``examples``; the fixture tests pin what each
rule catches and what it lets through.

========  ===============================================================
QG001     ``os.environ``/``environb``/``getenv``/``putenv``/``unsetenv``
          (or a ``from os import`` of them) only in ``utils/env.py``: every
          ``QUGEO_*`` default and coercion lives in one place.
QG002     no unseeded ``default_rng()``/``RandomState()`` and no
          global-state ``np.random.*`` draw in ``src/`` (``utils/rng.py``
          is the one fresh-entropy path).
QG004     no ``time.time``/``time.clock``, ``utcnow`` or unargued
          ``datetime``/``date`` ``.now()``/``.today()`` in ``src/``:
          durations use monotonic clocks, timestamps carry a timezone.
QG005     no bare or ``pass``/``...``-only exception handler in the
          fault-tolerance paths, except the best-effort temp-file cleanup
          in ``utils/serialization.py::atomic_replace``.
QG007     the config dataclasses digested into cache fingerprints keep
          the fields and version pinned in :data:`FINGERPRINT_PINS`.
========  ===============================================================
"""

from __future__ import annotations

import ast
import dataclasses
import textwrap
from functools import lru_cache
from pathlib import Path

import pytest

from repro.data.openfwi import OpenFWIConfig
from repro.data.store import DATA_FORMAT_VERSION
from repro.robustness.perturbations import (
    PERTURBATION_VERSION,
    DeadReceivers,
    GainJitter,
    ShotDropout,
    TimeShift,
    TraceNoise,
)
from repro.seismic.velocity_models import VelocityModelConfig

REPO_ROOT = Path(__file__).resolve().parents[1]
SCANNED_TREES = ("src", "benchmarks", "examples")

#: The tree holds 88 Python files; a glob that finds far fewer is broken.
MIN_SCANNED_FILES = 80


def dotted(node):
    """``"np.random.default_rng"`` for an attribute chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def import_aliases(tree):
    """Local name -> imported dotted path, from every import in ``tree``.

    ``import numpy as np`` maps ``np`` to ``numpy`` and ``from numpy import
    random`` maps ``random`` to ``numpy.random``, so a rule can match the
    module a name stands for rather than the spelling a file chose.
    """
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def resolved(node, aliases):
    """:func:`dotted` with its leading name expanded through ``aliases``."""
    name = dotted(node)
    if name is None:
        return None
    head, dot, rest = name.partition(".")
    return aliases.get(head, head) + dot + rest


def unargued(call):
    return not call.args and not call.keywords


# --------------------------------------------------------------------------- #
# the rules
# --------------------------------------------------------------------------- #
ENV_ATTRS = {"environ", "environb", "getenv", "putenv", "unsetenv"}


def qg001_env_access(tree, rel_path):
    """Environment access outside ``utils/env.py``."""
    if rel_path == "src/repro/utils/env.py":
        return []
    aliases = import_aliases(tree)
    return [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr in ENV_ATTRS
                and resolved(node.value, aliases) == "os")
            or (isinstance(node, ast.ImportFrom) and node.module == "os"
                and any(alias.name in ENV_ATTRS for alias in node.names))]


#: ``np.random`` names that build or seed generators rather than draw.
SAFE_RANDOM = {"default_rng", "Generator", "SeedSequence", "BitGenerator",
               "RandomState", "PCG64", "PCG64DXSM", "Philox", "MT19937",
               "SFC64"}
NEED_SEED = {"default_rng", "RandomState"}


def qg002_seeded_rng(tree, rel_path):
    """Unseeded constructors and global-state ``np.random`` calls in src."""
    if not rel_path.startswith("src/") or rel_path == "src/repro/utils/rng.py":
        return []
    aliases = import_aliases(tree)
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        module, _, attr = (resolved(node.func, aliases) or "").rpartition(".")
        if module != "numpy.random":
            continue
        if attr not in SAFE_RANDOM or (attr in NEED_SEED and unargued(node)):
            lines.append(node.lineno)
    return lines


def qg004_monotonic_clock(tree, rel_path):
    """Wall-clock reads and naive timestamps in src."""
    if not rel_path.startswith("src/"):
        return []
    aliases = import_aliases(tree)
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            if any(alias.name == "time" for alias in node.names):
                lines.append(node.lineno)
            continue
        if not isinstance(node, ast.Call):
            continue
        name = resolved(node.func, aliases) or ""
        parts = name.split(".")
        if name in ("time.time", "time.clock") \
                or (parts[-1] == "utcnow" and "datetime" in parts) \
                or (parts[-1] in ("now", "today") and len(parts) >= 2
                    and parts[-2] in ("datetime", "date") and unargued(node)):
            lines.append(node.lineno)
    return lines


QG005_SCOPE = ("src/repro/robustness/", "src/repro/data/store.py",
               "src/repro/utils/serialization.py", "src/repro/core/training.py")

#: ``(path, enclosing function)`` of the swallowing handlers that are meant:
#: unlinking a temp file after a failed write, before the original error
#: re-raises.
QG005_ALLOWED = {("src/repro/utils/serialization.py", "atomic_replace")}


def handlers(node, function=None):
    """``(except clause, innermost enclosing function name)`` pairs."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ExceptHandler):
            yield child, function
        inner = child.name if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from handlers(child, inner)


def swallows(handler):
    body = handler.body
    return handler.type is None or len(body) == 1 and (
        isinstance(body[0], ast.Pass)
        or isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
        and body[0].value.value is Ellipsis)


def qg005_swallowed_exception(tree, rel_path):
    """Bare or do-nothing handlers in the fault-tolerance paths."""
    if not rel_path.startswith(QG005_SCOPE):
        return []
    return [handler.lineno for handler, function in handlers(tree)
            if swallows(handler) and (rel_path, function) not in QG005_ALLOWED]


FILE_RULES = {
    "QG001": qg001_env_access,
    "QG002": qg002_seeded_rng,
    "QG004": qg004_monotonic_clock,
    "QG005": qg005_swallowed_exception,
}

#: class name -> (pinned version, pinned field names).  Changing the fields
#: of a class means bumping its version constant and this pin together.
FINGERPRINT_PINS = {
    "OpenFWIConfig": (3, (
        "n_samples", "velocity_shape", "n_sources", "n_receivers",
        "n_time_steps", "dx", "peak_frequency", "family", "model_config",
        "boundary_width", "spatial_order", "chunk_size", "boundary",
        "record_every")),
    "VelocityModelConfig": (3, (
        "shape", "min_velocity", "max_velocity", "min_layers", "max_layers",
        "increasing_velocity")),
    "TraceNoise": (1, ("snr_db", "band")),
    "DeadReceivers": (1, ("fraction",)),
    "ShotDropout": (1, ("fraction",)),
    "GainJitter": (1, ("sigma",)),
    "TimeShift": (1, ("max_shift",)),
}


def live_fingerprints(versioned_classes):
    """class name -> (version, field names) of ``(class, version)`` pairs."""
    return {cls.__name__: (version, tuple(field.name for field
                                          in dataclasses.fields(cls)))
            for cls, version in versioned_classes}


def qg007_fingerprint_drift(pins, live):
    """One message per pinned class whose live fields or version moved."""
    problems = []
    for name, (version, fields) in pins.items():
        if name not in live:
            problems.append(f"{name}: pinned class not found")
            continue
        live_version, live_fields = live[name]
        if live_version != version:
            problems.append(f"{name}: version is {live_version}, pin says "
                            f"{version}; refresh the pinned fields and version")
        elif live_fields != fields:
            problems.append(f"{name}: fields {fields} -> {live_fields} "
                            "without a version bump")
    return problems


# --------------------------------------------------------------------------- #
# the tree upholds every invariant
# --------------------------------------------------------------------------- #
@lru_cache(maxsize=None)
def project_trees():
    files = sorted(path for tree in SCANNED_TREES
                   for path in (REPO_ROOT / tree).rglob("*.py")
                   if "__pycache__" not in path.parts)
    return tuple((path.relative_to(REPO_ROOT).as_posix(),
                  ast.parse(path.read_text(encoding="utf-8"), str(path)))
                 for path in files)


def test_tree_scan_finds_the_project():
    assert len(project_trees()) >= MIN_SCANNED_FILES


@pytest.mark.parametrize("code", sorted(FILE_RULES))
def test_tree_upholds(code):
    rule = FILE_RULES[code]
    found = [f"{rel}:{line}" for rel, tree in project_trees()
             for line in rule(tree, rel)]
    assert found == [], f"{code} ({rule.__doc__.strip()}): {found}"


def test_tree_upholds_qg007_fingerprint_pins():
    live = live_fingerprints(
        [(OpenFWIConfig, DATA_FORMAT_VERSION),
         (VelocityModelConfig, DATA_FORMAT_VERSION)]
        + [(cls, PERTURBATION_VERSION) for cls in (
            TraceNoise, DeadReceivers, ShotDropout, GainJitter, TimeShift)])
    assert qg007_fingerprint_drift(FINGERPRINT_PINS, live) == []


# --------------------------------------------------------------------------- #
# fixtures: what each rule catches and what it lets through
# --------------------------------------------------------------------------- #
def flagged(code, source, rel_path="src/repro/foo.py"):
    return FILE_RULES[code](ast.parse(textwrap.dedent(source)), rel_path)


def test_qg001_flags_direct_environ():
    assert flagged("QG001", """\
        import os
        os.environ["QUGEO_TELEMETRY"] = "off"
        value = os.getenv("QUGEO_TELEMETRY")
    """) == [2, 3]


def test_qg001_flags_aliased_os():
    assert flagged("QG001", """\
        import os as _os
        value = _os.environ.get("X")
    """) == [2]


def test_qg001_allows_env_module_and_flags_from_import():
    source = """\
        import os
        os.environ["QUGEO_TELEMETRY"] = "off"
    """
    assert flagged("QG001", source, "src/repro/utils/env.py") == []
    assert flagged("QG001", "from os import getenv\n",
                   "benchmarks/bench_x.py") == [1]
    assert flagged("QG001", "from os import path\n") == []


def test_qg002_flags_unseeded_and_global_rng():
    assert flagged("QG002", """\
        import numpy as np
        from numpy.random import default_rng
        rng = np.random.default_rng()
        x = np.random.normal(size=3)
        other = default_rng()
    """) == [3, 4, 5]


def test_qg002_flags_aliased_numpy_random():
    assert flagged("QG002", """\
        from numpy import random
        x = random.rand()
    """) == [2]
    assert flagged("QG002", """\
        import numpy.random as npr
        rng = npr.default_rng()
        seeded = npr.default_rng(3)
    """) == [2]


def test_qg002_allows_seeded_rng_module_and_non_src():
    assert flagged("QG002", """\
        import numpy as np
        rng = np.random.default_rng(np.random.SeedSequence(7))
        other = np.random.default_rng(123)
    """) == []
    unseeded = "import numpy as np\nfresh = np.random.default_rng()\n"
    assert flagged("QG002", unseeded, "src/repro/utils/rng.py") == []
    assert flagged("QG002", unseeded, "examples/demo.py") == []


def test_qg004_flags_wall_clock():
    assert flagged("QG004", """\
        import time
        from datetime import date, datetime
        from time import time as wall
        start = time.time()
        stamp = datetime.utcnow()
        naive = datetime.now()
        day = date.today()
    """) == [3, 4, 5, 6, 7]


def test_qg004_flags_aliased_time_module():
    assert flagged("QG004", """\
        import time as _t
        start = _t.time()
        elapsed = _t.perf_counter() - start
    """) == [2]


def test_qg004_allows_monotonic_and_tz_aware():
    assert flagged("QG004", """\
        import time
        from datetime import datetime, timezone
        start = time.perf_counter()
        stamp = datetime.now(timezone.utc)
    """) == []
    assert flagged("QG004", "import time\nstart = time.time()\n",
                   "benchmarks/bench_x.py") == []


SWALLOWING = """\
    def f():
        try:
            risky()
        except:
            recover()
        try:
            risky()
        except OSError:
            pass
        try:
            risky()
        except ValueError:
            ...
"""


def test_qg005_flags_bare_and_pass_handlers():
    assert flagged("QG005", SWALLOWING,
                   "src/repro/robustness/faults.py") == [4, 8, 12]
    assert flagged("QG005", SWALLOWING, "src/repro/data/store.py") == [4, 8, 12]


def test_qg005_ignores_handled_out_of_scope_and_allowed():
    assert flagged("QG005", """\
        def f(log):
            try:
                risky()
            except OSError as exc:
                log.warning("retrying: %s", exc)
    """, "src/repro/robustness/faults.py") == []
    assert flagged("QG005", SWALLOWING, "src/repro/metrics/foo.py") == []
    cleanup = SWALLOWING.replace("def f", "def atomic_replace")
    assert flagged("QG005", cleanup, "src/repro/utils/serialization.py") == []
    # The allow-list names one function in one file, not the file.
    assert flagged("QG005", SWALLOWING,
                   "src/repro/utils/serialization.py") == [4, 8, 12]
    assert flagged("QG005", cleanup, "src/repro/data/store.py") == [4, 8, 12]


def test_qg007_clean_when_pin_matches():
    Config = dataclasses.make_dataclass("Config", ["alpha", "beta"])
    pins = {"Config": (1, ("alpha", "beta"))}
    assert qg007_fingerprint_drift(pins, live_fingerprints([(Config, 1)])) == []


def test_qg007_flags_field_change_without_bump():
    Config = dataclasses.make_dataclass("Config", ["alpha", "beta", "gamma"])
    pins = {"Config": (1, ("alpha", "beta"))}
    (problem,) = qg007_fingerprint_drift(pins, live_fingerprints([(Config, 1)]))
    assert "gamma" in problem and "without a version bump" in problem


def test_qg007_flags_stale_pin_after_bump():
    Config = dataclasses.make_dataclass("Config", ["alpha", "beta", "gamma"])
    pins = {"Config": (1, ("alpha", "beta"))}
    (problem,) = qg007_fingerprint_drift(pins, live_fingerprints([(Config, 2)]))
    assert "refresh" in problem


def test_qg007_flags_missing_class():
    pins = {"Config": (1, ("alpha", "beta"))}
    (problem,) = qg007_fingerprint_drift(pins, {})
    assert "not found" in problem
