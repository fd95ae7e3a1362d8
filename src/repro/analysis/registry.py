"""String-keyed registry of lint rules.

Rules register their class under their code (``QG001``) in :data:`RULES`,
a :class:`~repro.utils.registry.Registry`, and callers resolve them by code
*or* short name (``env-access``), case-insensitively.  ``--select`` / ``--ignore`` on the CLI go through
:func:`resolve_rules`.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.analysis.base import Rule
from repro.utils.registry import Registry, UnknownNameError

RULES: Registry[Rule] = Registry("lint rule", Rule)


def get_rule(spec: str) -> Rule:
    """Resolve a code (``QG001``) or short name (``env-access``) to a rule."""
    code = spec.strip().upper()
    if code in RULES.names():
        return RULES.get(code)
    lowered = spec.strip().lower()
    for code in RULES.names():
        rule = RULES.get(code)
        if rule.name.lower() == lowered:
            return rule
    raise UnknownNameError(RULES.kind, spec, RULES.names())


def resolve_rules(select: Optional[Iterable[str]] = None,
                  ignore: Optional[Iterable[str]] = None) -> List[Rule]:
    """The rule set for one run: everything (or ``select``) minus ``ignore``,
    in code order when nothing is selected.

    Unknown codes in either list raise
    :class:`~repro.utils.registry.UnknownNameError` so typos fail loudly
    instead of silently linting nothing.
    """
    chosen = [get_rule(spec) for spec in select or RULES.names()]
    ignored = {get_rule(spec).code for spec in ignore or ()}
    return [rule for rule in chosen if rule.code not in ignored]
