"""Tests for the project-invariant linter (``repro.analysis``).

Each rule gets a positive fixture (a tiny project tree that must trigger
it), a negative fixture (the compliant spelling), and a suppression fixture
(the violation silenced by a same-line ``qugeo-lint: disable=`` comment).
The final test lints the real repository tree and requires zero findings —
the same gate CI runs.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

import repro.analysis.registry as rule_registry
from repro.analysis import RULES, Finding, Rule, get_rule, lint_paths, resolve_rules
from repro.analysis.baselines import FingerprintBaseline
from repro.analysis.base import Project, parse_suppressions, scan_comments
from repro.analysis.cli import main as cli_main
from repro.analysis.rules.qg007_fingerprint import FingerprintHygieneRule
from repro.utils.registry import DuplicateNameError, Registry, UnknownNameError

REPO_ROOT = Path(__file__).resolve().parents[1]


def make_project(tmp_path, files):
    """Materialize a throwaway project tree with a pyproject.toml root."""
    (tmp_path / "pyproject.toml").write_text("[project]\nname = 'fixture'\n")
    for rel, content in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content))
    return tmp_path


def lint_fixture(root, rule, paths=("src",)):
    """Lint the fixture tree with one rule selected."""
    return lint_paths([root / p for p in paths], select=[rule],
                      project_root=root)


def codes(result):
    return [finding.rule for finding in result.findings]


# --------------------------------------------------------------------------- #
# QG001 — env access outside the waist
# --------------------------------------------------------------------------- #
def test_qg001_flags_direct_environ(tmp_path):
    root = make_project(tmp_path, {
        "src/repro/foo.py": """\
            import os
            os.environ["QUGEO_BACKEND"] = "torch"
            value = os.getenv("QUGEO_DTYPE")
        """,
    })
    result = lint_fixture(root, "QG001")
    assert codes(result) == ["QG001", "QG001"]


def test_qg001_allows_env_module_and_from_import_flagged(tmp_path):
    root = make_project(tmp_path, {
        "src/repro/utils/env.py": """\
            import os
            os.environ["QUGEO_BACKEND"] = "numpy"
        """,
        "src/repro/bar.py": """\
            from os import getenv
        """,
    })
    result = lint_fixture(root, "QG001")
    assert [(f.rule, f.path) for f in result.findings] == \
        [("QG001", "src/repro/bar.py")]


def test_qg001_suppression(tmp_path):
    root = make_project(tmp_path, {
        "src/repro/foo.py": """\
            import os
            os.environ["X"] = "y"  # qugeo-lint: disable=QG001 -- fixture
        """,
    })
    assert codes(lint_fixture(root, "QG001")) == []


# --------------------------------------------------------------------------- #
# QG002 — unseeded RNG
# --------------------------------------------------------------------------- #
def test_qg002_flags_unseeded_and_global_rng(tmp_path):
    root = make_project(tmp_path, {
        "src/repro/foo.py": """\
            import numpy as np
            rng = np.random.default_rng()
            x = np.random.rand(3)
        """,
    })
    assert codes(lint_fixture(root, "QG002")) == ["QG002", "QG002"]


def test_qg002_allows_seeded_and_rng_module(tmp_path):
    root = make_project(tmp_path, {
        "src/repro/foo.py": """\
            import numpy as np
            rng = np.random.default_rng(np.random.SeedSequence(7))
            other = np.random.default_rng(123)
        """,
        "src/repro/utils/rng.py": """\
            import numpy as np
            fresh = np.random.default_rng()
        """,
    })
    assert codes(lint_fixture(root, "QG002")) == []


def test_qg002_suppression(tmp_path):
    root = make_project(tmp_path, {
        "src/repro/foo.py": """\
            import numpy as np
            rng = np.random.default_rng()  # qugeo-lint: disable=QG002 -- fixture
        """,
    })
    assert codes(lint_fixture(root, "QG002")) == []


# --------------------------------------------------------------------------- #
# QG003 — raw numpy in xm-seamed modules
# --------------------------------------------------------------------------- #
def test_qg003_flags_raw_einsum_in_seamed_module(tmp_path):
    root = make_project(tmp_path, {
        "src/repro/backends/fast.py": """\
            import numpy as np
            def contract(a, b):
                return np.einsum("ij,jk->ik", a, b)
        """,
    })
    assert codes(lint_fixture(root, "QG003")) == ["QG003"]


def test_qg003_ignores_unseamed_modules_and_xm_calls(tmp_path):
    root = make_project(tmp_path, {
        "src/repro/metrics/foo.py": """\
            import numpy as np
            def contract(a, b):
                return np.einsum("ij,jk->ik", a, b)
        """,
        "src/repro/backends/good.py": """\
            def contract(xm, a, b):
                return xm.einsum("ij,jk->ik", a, b)
        """,
    })
    assert codes(lint_fixture(root, "QG003")) == []


def test_qg003_suppression(tmp_path):
    root = make_project(tmp_path, {
        "src/repro/quantum/sim.py": """\
            import numpy as np
            def f(a, b):
                return np.matmul(a, b)  # qugeo-lint: disable=QG003 -- fixture
        """,
    })
    assert codes(lint_fixture(root, "QG003")) == []


# --------------------------------------------------------------------------- #
# QG004 — wall-clock in src
# --------------------------------------------------------------------------- #
def test_qg004_flags_wall_clock(tmp_path):
    root = make_project(tmp_path, {
        "src/repro/foo.py": """\
            import time
            from datetime import datetime
            start = time.time()
            stamp = datetime.utcnow()
        """,
    })
    assert codes(lint_fixture(root, "QG004")) == ["QG004", "QG004"]


def test_qg004_allows_monotonic_and_tz_aware(tmp_path):
    root = make_project(tmp_path, {
        "src/repro/foo.py": """\
            import time
            from datetime import datetime, timezone
            start = time.perf_counter()
            stamp = datetime.now(timezone.utc)
        """,
    })
    assert codes(lint_fixture(root, "QG004")) == []


def test_qg004_suppression(tmp_path):
    root = make_project(tmp_path, {
        "src/repro/foo.py": """\
            import time
            start = time.time()  # qugeo-lint: disable=QG004 -- fixture
        """,
    })
    assert codes(lint_fixture(root, "QG004")) == []


# --------------------------------------------------------------------------- #
# QG005 — swallowed exceptions in fault-tolerance paths
# --------------------------------------------------------------------------- #
def test_qg005_flags_bare_and_pass_handlers(tmp_path):
    root = make_project(tmp_path, {
        "src/repro/robustness/faults.py": """\
            def f():
                try:
                    risky()
                except:
                    recover()
                try:
                    risky()
                except OSError:
                    pass
        """,
    })
    assert codes(lint_fixture(root, "QG005")) == ["QG005", "QG005"]


def test_qg005_ignores_handled_and_out_of_scope(tmp_path):
    root = make_project(tmp_path, {
        "src/repro/robustness/faults.py": """\
            def f(log):
                try:
                    risky()
                except OSError as exc:
                    log.warning("retrying: %s", exc)
        """,
        "src/repro/metrics/foo.py": """\
            def f():
                try:
                    risky()
                except ValueError:
                    pass
        """,
    })
    assert codes(lint_fixture(root, "QG005")) == []


def test_qg005_suppression(tmp_path):
    root = make_project(tmp_path, {
        "src/repro/robustness/faults.py": """\
            def f():
                try:
                    risky()
                except OSError:  # qugeo-lint: disable=QG005 -- fixture
                    pass
        """,
    })
    assert codes(lint_fixture(root, "QG005")) == []


# --------------------------------------------------------------------------- #
# QG007 — fingerprint hygiene
# --------------------------------------------------------------------------- #
def _qg007_project(tmp_path, *, fields=("alpha", "beta"), version=1):
    field_lines = "\n".join(f"    {name}: int = 0" for name in fields)
    return make_project(tmp_path, {
        "src/repro/data/cfg.py": (
            "from dataclasses import dataclass\n"
            f"FORMAT_VERSION = {version}\n"
            "@dataclass\n"
            "class Config:\n"
            f"{field_lines}\n"
        ),
    })


def _qg007_rule():
    return FingerprintHygieneRule(baselines=(FingerprintBaseline(
        config_class="Config",
        config_module="src/repro/data/cfg.py",
        version_const="FORMAT_VERSION",
        version_module="src/repro/data/cfg.py",
        pinned_version=1,
        pinned_fields=("alpha", "beta"),
    ),))


def test_qg007_clean_when_pin_matches(tmp_path):
    root = _qg007_project(tmp_path)
    assert list(_qg007_rule().check_project(Project(root=root))) == []


def test_qg007_flags_field_change_without_bump(tmp_path):
    root = _qg007_project(tmp_path, fields=("alpha", "beta", "gamma"))
    findings = list(_qg007_rule().check_project(Project(root=root)))
    assert [f.rule for f in findings] == ["QG007"]
    assert "gamma" in findings[0].message
    assert "FORMAT_VERSION" in findings[0].message


def test_qg007_flags_stale_pin_after_bump(tmp_path):
    root = _qg007_project(tmp_path, fields=("alpha", "beta", "gamma"),
                          version=2)
    findings = list(_qg007_rule().check_project(Project(root=root)))
    assert [f.rule for f in findings] == ["QG007"]
    assert "refresh" in findings[0].message


def test_qg007_flags_missing_class(tmp_path):
    root = make_project(tmp_path, {
        "src/repro/data/cfg.py": "FORMAT_VERSION = 1\n",
    })
    findings = list(_qg007_rule().check_project(Project(root=root)))
    assert [f.rule for f in findings] == ["QG007"]
    assert "not found" in findings[0].message


# --------------------------------------------------------------------------- #
# engine / CLI / registry behaviour
# --------------------------------------------------------------------------- #
def test_parse_error_reported_as_qg000(tmp_path):
    root = make_project(tmp_path, {
        "src/repro/foo.py": "def broken(:\n",
    })
    result = lint_paths([root / "src"], project_root=root, select=["QG001"])
    assert codes(result) == ["QG000"]


def test_suppression_parser_rationale_and_all():
    comments = scan_comments(
        'x = 1  # qugeo-lint: disable=QG001,QG003 -- why\n'
        'y = 2  # qugeo-lint: disable=all\n'
        's = "# qugeo-lint: disable=QG001"\n')
    suppressions = parse_suppressions(comments)
    assert suppressions == {1: {"QG001", "QG003"}, 2: {"ALL"}}


def test_select_and_ignore(tmp_path):
    root = make_project(tmp_path, {
        "src/repro/foo.py": """\
            import os
            import time
            os.environ["X"] = "y"
            start = time.time()
        """,
    })
    assert codes(lint_paths([root / "src"], project_root=root,
                            select=["QG001"])) == ["QG001"]
    assert codes(lint_paths([root / "src"], project_root=root,
                            select=["QG001", "QG004"],
                            ignore=["env-access"])) == ["QG004"]


def test_unknown_rule_raises():
    with pytest.raises(UnknownNameError, match="QG001"):
        resolve_rules(["QG999"], None)
    with pytest.raises(UnknownNameError):
        resolve_rules(None, ["no-such-rule"])


def test_registry_register_unregister(monkeypatch):
    """A rule registered in a throwaway table resolves by code or short
    name; the global table is untouched once the fixture is undone."""
    class FixtureRule(Rule):
        code = "ZZ901"
        name = "fixture-rule"
        description = "fixture"

    table = Registry("lint rule", None, None, Rule)
    monkeypatch.setattr(rule_registry, "RULES", table)
    table.register(FixtureRule.code, FixtureRule)
    assert get_rule("fixture-rule").code == "ZZ901"
    assert get_rule("zz901").code == "ZZ901"
    assert [rule.code for rule in resolve_rules()] == ["ZZ901"]
    with pytest.raises(DuplicateNameError):
        table.register(FixtureRule.code, FixtureRule)
    monkeypatch.undo()
    assert "ZZ901" not in RULES.names()


def test_cli_json_schema(tmp_path, capsys):
    root = make_project(tmp_path, {
        "src/repro/foo.py": """\
            import os
            os.environ["X"] = "y"
        """,
    })
    exit_code = cli_main([str(root / "src"), "--project-root", str(root),
                          "--select", "QG001", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert exit_code == 1
    assert payload["version"] == 1
    assert payload["files_checked"] == 1
    assert set(payload["summary"]) == {"findings", "by_rule"}
    assert payload["summary"]["by_rule"] == {"QG001": 1}
    (finding,) = payload["findings"]
    assert set(finding) == {"path", "line", "col", "rule", "message"}
    assert finding["rule"] == "QG001"
    assert finding["path"] == "src/repro/foo.py"


def test_cli_clean_tree_exits_zero(tmp_path, capsys):
    root = make_project(tmp_path, {"src/repro/foo.py": "x = 1\n"})
    exit_code = cli_main([str(root / "src"), "--project-root", str(root),
                          "--ignore", "QG007"])
    assert exit_code == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_cli_unknown_rule_exits_two(tmp_path, capsys):
    root = make_project(tmp_path, {"src/repro/foo.py": "x = 1\n"})
    exit_code = cli_main([str(root / "src"), "--select", "QG999",
                          "--project-root", str(root)])
    assert exit_code == 2
    assert "QG999" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert cli_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("QG001", "QG007"):
        assert code in out


def test_findings_sort_and_format():
    a = Finding(path="a.py", line=2, col=0, rule="QG001", message="m")
    b = Finding(path="a.py", line=10, col=0, rule="QG002", message="m")
    assert sorted([b, a]) == [a, b]
    assert a.format() == "a.py:2:0: QG001 m"


# --------------------------------------------------------------------------- #
# the real tree must lint clean — the same gate CI enforces
# --------------------------------------------------------------------------- #
def test_repository_tree_has_zero_findings():
    result = lint_paths(project_root=REPO_ROOT)
    assert result.findings == [], "\n".join(
        finding.format() for finding in result.findings)
    assert len(result.files) > 100
    assert result.rules == [
        "QG001", "QG002", "QG003", "QG004", "QG005", "QG007"]
