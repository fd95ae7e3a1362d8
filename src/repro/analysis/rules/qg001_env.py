"""QG001 — all ``QUGEO_*`` environment access goes through ``repro.utils.env``.

Contract guarded: :mod:`repro.utils.env` is the single place that knows the
variable names, defaults and coercions (``KNOWN_VARS``), so documented
behaviour cannot drift between call sites.  Direct ``os.environ`` /
``os.getenv`` access anywhere else bypasses that waist — reads dodge the
choice validation and writes dodge :func:`repro.utils.env.set_var`'s
prefix check.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.base import Rule, SourceFile, dotted_name
from repro.analysis.findings import Finding
from repro.analysis.registry import RULES

#: The sanctioned module — the only file allowed to touch ``os.environ``.
ALLOWED_FILES = frozenset({"src/repro/utils/env.py"})

#: ``os`` attributes that read or mutate the process environment.
_ENV_ATTRS = frozenset({"environ", "environb", "getenv", "putenv", "unsetenv"})


class EnvAccessRule(Rule):
    code = "QG001"
    name = "env-access"
    description = ("direct os.environ/os.getenv access outside "
                   "repro/utils/env.py (the QUGEO_* parsing waist)")

    def check_file(self, sf: SourceFile) -> Iterator[Finding]:
        if sf.tree is None or sf.rel_path in ALLOWED_FILES:
            return
        for node in ast.walk(sf.tree):
            if isinstance(node, ast.Attribute) and node.attr in _ENV_ATTRS:
                base = dotted_name(node.value)
                if base == "os":
                    yield sf.finding(
                        node, self.code,
                        f"direct os.{node.attr} access; route QUGEO_* "
                        f"reads/writes through repro.utils.env "
                        f"(get_str/get_choice/set_var/scoped)")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                for alias in node.names:
                    if alias.name in _ENV_ATTRS:
                        yield sf.finding(
                            node, self.code,
                            f"importing os.{alias.name}; route QUGEO_* "
                            f"reads/writes through repro.utils.env instead")


RULES.register(EnvAccessRule.code, EnvAccessRule)
