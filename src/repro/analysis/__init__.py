"""Static analysis for the QuGeo reproduction: ``qugeo-lint``.

An AST-based, zero-dependency linter enforcing the project invariants that
generic linters cannot see — the env-variable waist, seeded-RNG
determinism, monotonic telemetry clocks, fault-path exception hygiene and
fingerprint format-version discipline.  Run it with::

    python -m repro.analysis [PATH ...]
    qugeo-lint --list-rules

Rules live in :mod:`repro.analysis.rules` and are registered by string
code (``QG001``...) in :mod:`repro.analysis.registry`.
"""

from repro.analysis.base import (
    Project,
    Rule,
    SourceFile,
    find_project_root,
    load_source_file,
)
from repro.analysis.engine import DEFAULT_PATHS, LintResult, lint_paths
from repro.analysis.findings import PARSE_ERROR_CODE, Finding
from repro.analysis.registry import RULES, get_rule, resolve_rules

# Importing the rules package registers the built-in rules.
import repro.analysis.rules  # noqa: F401  (imported for registration)

__all__ = [
    "DEFAULT_PATHS",
    "Finding",
    "LintResult",
    "PARSE_ERROR_CODE",
    "Project",
    "RULES",
    "Rule",
    "SourceFile",
    "find_project_root",
    "get_rule",
    "lint_paths",
    "load_source_file",
    "resolve_rules",
]
