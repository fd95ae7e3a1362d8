"""Shared infrastructure for lint rules: parsed files, the project view,
suppression comments, and the :class:`Rule` interface.

Suppression contract
--------------------

A finding is suppressed by a ``qugeo-lint`` comment on the *same line*::

    risky_call()  # qugeo-lint: disable=QG003 -- host-numpy path by design

Several codes may be listed (``disable=QG001,QG005``) and ``disable=all``
silences every rule on that line.  Anything after the code list is free-form
rationale — suppressions without a *why* do not survive review, so the
syntax encourages one.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, Optional, Set

from repro.analysis.findings import Finding

#: Matches the machine-readable head of a suppression comment.
_DISABLE_RE = re.compile(r"qugeo-lint:\s*disable=([A-Za-z0-9_,\- ]+)")

#: A valid rule code inside a ``disable=`` list.
_CODE_RE = re.compile(r"^[A-Z]{2}\d{3}$")

#: Files/directories never worth parsing.
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules", ".qugeo-cache"}


def scan_comments(source: str) -> Dict[int, str]:
    """Map line number -> comment text for every ``#`` comment in ``source``.

    Uses :mod:`tokenize` so comment-looking text inside string literals is
    never misread as a directive.  Returns what it saw so far when the file
    cannot be tokenized (the AST parse will report the real error).
    """
    comments: Dict[int, str] = {}
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                comments[token.start[0]] = token.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass
    return comments


def parse_suppressions(comments: Dict[int, str]) -> Dict[int, Set[str]]:
    """Extract ``disable=`` directives: line number -> suppressed codes.

    The special set ``{"ALL"}`` suppresses every rule on that line.
    """
    suppressions: Dict[int, Set[str]] = {}
    for line, comment in comments.items():
        match = _DISABLE_RE.search(comment)
        if not match:
            continue
        codes: Set[str] = set()
        for part in match.group(1).split(","):
            token = part.strip().split()[0] if part.strip() else ""
            if token.lower() == "all":
                codes.add("ALL")
            elif _CODE_RE.match(token.upper()):
                codes.add(token.upper())
        if codes:
            suppressions[line] = codes
    return suppressions


@dataclass
class SourceFile:
    """One parsed source file plus its lint-relevant side channels."""

    path: Path
    rel_path: str
    source: str
    tree: Optional[ast.Module]
    comments: Dict[int, str] = field(default_factory=dict)
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    parse_error: Optional[str] = None
    parse_error_line: int = 1

    def is_suppressed(self, finding: Finding) -> bool:
        """Whether ``finding`` is silenced by a same-line directive."""
        codes = self.suppressions.get(finding.line)
        if not codes:
            return False
        return "ALL" in codes or finding.rule in codes

    def finding(self, node: ast.AST, rule: str, message: str) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(path=self.rel_path, line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0), rule=rule,
                       message=message)


def load_source_file(path: Path, root: Path) -> SourceFile:
    """Read and parse ``path`` into a :class:`SourceFile`.

    Syntax errors do not raise: the file comes back with ``tree=None`` and
    ``parse_error`` set, and the engine reports it under
    :data:`~repro.analysis.findings.PARSE_ERROR_CODE`.
    """
    source = path.read_text(encoding="utf-8", errors="replace")
    try:
        rel = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:  # outside the project root (explicit file argument)
        rel = path.as_posix()
    comments = scan_comments(source)
    try:
        tree: Optional[ast.Module] = ast.parse(source, filename=str(path))
        error, error_line = None, 1
    except SyntaxError as exc:
        tree = None
        error = f"syntax error: {exc.msg}"
        error_line = exc.lineno or 1
    return SourceFile(path=path, rel_path=rel, source=source, tree=tree,
                      comments=comments, suppressions=parse_suppressions(comments),
                      parse_error=error, parse_error_line=error_line)


def iter_python_files(path: Path) -> Iterator[Path]:
    """Yield every ``.py`` file under ``path`` (or ``path`` itself)."""
    if path.is_file():
        if path.suffix == ".py":
            yield path
        return
    for candidate in sorted(path.rglob("*.py")):
        if not any(part in _SKIP_DIRS or part.startswith(".")
                   for part in candidate.relative_to(path).parts):
            yield candidate


_ROOT_MARKERS = ("pyproject.toml", ".git")


def find_project_root(start: Path) -> Path:
    """Walk up from ``start`` to the nearest directory that looks like a
    project root (``pyproject.toml`` / ``.git``); fall back to ``start``."""
    current = start.resolve()
    if current.is_file():
        current = current.parent
    for candidate in (current, *current.parents):
        if any((candidate / marker).exists() for marker in _ROOT_MARKERS):
            return candidate
    return current


@dataclass(frozen=True)
class Project:
    """Project-level view for rules that reason across files (QG007)."""

    root: Path

    def load_rel(self, rel_path: str) -> Optional[SourceFile]:
        """Load a project-relative path, or ``None`` when it does not exist."""
        path = self.root / rel_path
        if not path.is_file():
            return None
        return load_source_file(path, self.root)


class Rule:
    """Base class for lint rules.

    A rule declares a ``code`` (``QGnnn``), a short ``name`` and a
    ``description`` (both shown by ``--list-rules``), and implements one or
    both hooks:

    * :meth:`check_file` — called once per linted file with its parsed
      :class:`SourceFile`; per-line suppressions are applied by the engine.
    * :meth:`check_project` — called once per run with the :class:`Project`
      view, for invariants that span files (pinned baselines).  Findings
      in files the engine also parsed still honour same-line suppressions.
    """

    code: str = ""
    name: str = ""
    description: str = ""

    def check_file(self, sf: SourceFile) -> Iterable[Finding]:
        return ()

    def check_project(self, project: Project) -> Iterable[Finding]:
        return ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(code={self.code!r}, name={self.name!r})"


def dotted_name(node: ast.AST) -> Optional[str]:
    """The dotted source text of a ``Name``/``Attribute`` chain, or ``None``.

    ``np.random.default_rng`` -> ``"np.random.default_rng"``; anything that
    is not a pure attribute chain (calls, subscripts) returns ``None``.
    """
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> Optional[str]:
    """Dotted name of a call's callee (``None`` for computed callees)."""
    return dotted_name(node.func)


def string_constants(node: ast.AST) -> Iterator[str]:
    """Every string literal anywhere inside ``node``."""
    for child in ast.walk(node):
        if isinstance(child, ast.Constant) and isinstance(child.value, str):
            yield child.value
