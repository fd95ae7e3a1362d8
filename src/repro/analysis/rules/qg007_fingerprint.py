"""QG007 — fingerprinted config classes cannot change without a version bump.

Contract guarded: :func:`repro.data.store.dataset_fingerprint` and
:func:`repro.robustness.perturbations.perturbation_fingerprint` digest
config dataclasses into cache keys.  Adding, removing or renaming a field
changes what two "equal" configs mean — without a
``DATA_FORMAT_VERSION`` / ``PERTURBATION_VERSION`` bump, previously cached
shards/views are served for configs they no longer describe.

The rule compares each watched class's current field list (parsed from the
AST, no imports executed) against the pinned baseline in
:mod:`repro.analysis.baselines`, and the version constant against the
pinned version.  Both halves must move together:

* fields changed, version unchanged -> the dangerous case, flagged at the
  class definition;
* version changed (with or without field changes) -> flagged at the
  constant until the baseline is refreshed, so the pin never rots.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.analysis.base import Project, Rule, SourceFile
from repro.analysis.baselines import FINGERPRINT_BASELINES, FingerprintBaseline
from repro.analysis.findings import Finding
from repro.analysis.registry import RULES

BASELINE_MODULE = "src/repro/analysis/baselines.py"


def dataclass_fields(sf: SourceFile, class_name: str
                     ) -> Optional[Tuple[Tuple[str, ...], int, int]]:
    """``(field_names, line, col)`` of ``class_name``, or ``None`` if absent.

    Fields are the class body's annotated assignments, excluding
    ``ClassVar`` annotations — the same set :func:`dataclasses.fields`
    reports, without importing the module.
    """
    if sf.tree is None:
        return None
    for node in ast.walk(sf.tree):
        if not (isinstance(node, ast.ClassDef) and node.name == class_name):
            continue
        names: List[str] = []
        for stmt in node.body:
            if not (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)):
                continue
            annotation = ast.dump(stmt.annotation)
            if "ClassVar" in annotation:
                continue
            names.append(stmt.target.id)
        return tuple(names), node.lineno, node.col_offset
    return None


def constant_value(sf: SourceFile, const_name: str
                   ) -> Optional[Tuple[object, int, int]]:
    """``(value, line, col)`` of a module-level constant, or ``None``."""
    if sf.tree is None:
        return None
    for stmt in sf.tree.body:
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name) \
                and stmt.targets[0].id == const_name:
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) \
                and isinstance(stmt.target, ast.Name) \
                and stmt.target.id == const_name:
            value = stmt.value
        if isinstance(value, ast.Constant):
            return value.value, stmt.lineno, stmt.col_offset
    return None


class FingerprintHygieneRule(Rule):
    code = "QG007"
    name = "fingerprint-hygiene"
    description = ("fingerprinted config dataclasses changed without a "
                   "DATA_FORMAT_VERSION/PERTURBATION_VERSION bump recorded "
                   "in repro/analysis/baselines.py")

    def __init__(self, baselines: Optional[Sequence[FingerprintBaseline]]
                 = None) -> None:
        self.baselines: Tuple[FingerprintBaseline, ...] = tuple(
            FINGERPRINT_BASELINES if baselines is None else baselines)

    def check_project(self, project: Project) -> Iterator[Finding]:
        for baseline in self.baselines:
            config_sf = project.load_rel(baseline.config_module)
            if config_sf is None:
                yield Finding(
                    path=BASELINE_MODULE, line=1, col=0, rule=self.code,
                    message=(f"baseline for {baseline.config_class} points "
                             f"at missing module {baseline.config_module}; "
                             f"refresh the pinned baseline"))
                continue
            located = dataclass_fields(config_sf, baseline.config_class)
            if located is None:
                yield Finding(
                    path=baseline.config_module, line=1, col=0,
                    rule=self.code,
                    message=(f"fingerprinted class {baseline.config_class} "
                             f"not found; refresh the pinned baseline in "
                             f"{BASELINE_MODULE}"))
                continue
            fields, cls_line, cls_col = located
            version_sf = project.load_rel(baseline.version_module)
            version_info = (constant_value(version_sf, baseline.version_const)
                            if version_sf is not None else None)
            if version_info is None:
                yield Finding(
                    path=baseline.version_module, line=1, col=0,
                    rule=self.code,
                    message=(f"version constant {baseline.version_const} "
                             f"not found (expected to guard "
                             f"{baseline.config_class})"))
                continue
            version, ver_line, ver_col = version_info
            fields_changed = fields != baseline.pinned_fields
            version_changed = version != baseline.pinned_version
            if fields_changed and not version_changed:
                added = sorted(set(fields) - set(baseline.pinned_fields))
                removed = sorted(set(baseline.pinned_fields) - set(fields))
                detail = "; ".join(part for part in (
                    f"added {added}" if added else "",
                    f"removed {removed}" if removed else "",
                    "" if added or removed else "reordered fields",
                ) if part)
                yield Finding(
                    path=baseline.config_module, line=cls_line, col=cls_col,
                    rule=self.code,
                    message=(f"{baseline.config_class} fields changed "
                             f"({detail}) without a {baseline.version_const} "
                             f"bump — cached fingerprints would collide; "
                             f"bump the version and refresh the pinned "
                             f"baseline in {BASELINE_MODULE}"))
            elif version_changed:
                yield Finding(
                    path=baseline.version_module, line=ver_line, col=ver_col,
                    rule=self.code,
                    message=(f"{baseline.version_const} is now {version!r} "
                             f"but the {baseline.config_class} baseline pins "
                             f"{baseline.pinned_version!r}; refresh the "
                             f"pinned fields/version in {BASELINE_MODULE}"))


RULES.register(FingerprintHygieneRule.code, FingerprintHygieneRule)
