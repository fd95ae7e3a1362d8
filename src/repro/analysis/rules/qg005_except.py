"""QG005 — fault-tolerance paths never swallow exceptions silently.

Contract guarded: the robustness subsystem (PR 8) is built on *observable*
degradation — quarantined shards, retried chunks, checkpoint fallbacks all
log or count what they dropped.  A bare ``except:`` (which also catches
``KeyboardInterrupt``/``SystemExit``) or an ``except ...: pass`` in those
paths hides exactly the faults the subsystem exists to surface.

Scope: ``robustness/``, the sharded store, checkpoint serialization and the
training engine's checkpoint/resume code.  Benign best-effort cleanups
(e.g. unlinking a temp file) stay allowed via a suppression comment that
states the rationale.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.base import Rule, SourceFile
from repro.analysis.findings import Finding
from repro.analysis.registry import RULES

#: Fault-tolerance surfaces (prefix or exact project-relative path).
SCOPE_PREFIXES = ("src/repro/robustness/",)
SCOPE_FILES = frozenset({
    "src/repro/data/store.py",
    "src/repro/utils/serialization.py",
    "src/repro/core/training.py",
})


def _in_scope(rel_path: str) -> bool:
    return rel_path in SCOPE_FILES or any(
        rel_path.startswith(prefix) for prefix in SCOPE_PREFIXES)


def _swallows(handler: ast.ExceptHandler) -> bool:
    """Whether the handler body does nothing (``pass`` / ``...``)."""
    if len(handler.body) != 1:
        return False
    stmt = handler.body[0]
    if isinstance(stmt, ast.Pass):
        return True
    return (isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis)


class SwallowedExceptionRule(Rule):
    code = "QG005"
    name = "swallowed-exception"
    description = ("bare except: or except-pass in fault-tolerance paths "
                   "(robustness/, data/store.py, checkpoint code)")

    def check_file(self, sf: SourceFile) -> Iterator[Finding]:
        if sf.tree is None or not _in_scope(sf.rel_path):
            return
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield sf.finding(
                    node, self.code,
                    "bare except: in a fault-tolerance path also catches "
                    "KeyboardInterrupt/SystemExit; name the exception types "
                    "and record the fault (log / telemetry counter)")
            elif _swallows(node):
                yield sf.finding(
                    node, self.code,
                    "exception swallowed with a pass-only handler in a "
                    "fault-tolerance path; record the fault (log / telemetry "
                    "counter) or suppress with a rationale if the failure "
                    "is provably benign")


RULES.register(SwallowedExceptionRule.code, SwallowedExceptionRule)
