"""QG004 — telemetry-instrumented code measures time on monotonic clocks.

Contract guarded: every span/timer in :mod:`repro.telemetry` is built on
:func:`time.perf_counter` (see its module docstring), and the trainer's
epoch timing feeds checkpointed history.  ``time.time()`` is subject to NTP
steps and DST jumps, so a single wall-clock duration poisons profiles and
resume-consistency checks.  Naive ``datetime.now()`` / ``utcnow()`` have
the same failure mode plus timezone ambiguity.

Timestamps (not durations) are still fine when timezone-aware:
``datetime.now(timezone.utc)`` — the form benchmark metadata uses — passes
because the call has an argument.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.base import Rule, SourceFile, call_name
from repro.analysis.findings import Finding
from repro.analysis.registry import RULES

#: Calls that read the wall clock (flagged unconditionally).
_WALL_CLOCK_CALLS = frozenset({"time.time", "time.clock"})

#: ``datetime``/``date`` constructors flagged only when naive (no tz arg).
_NAIVE_WHEN_UNARGUED = frozenset({"now", "today"})


class MonotonicClockRule(Rule):
    code = "QG004"
    name = "monotonic-clock"
    description = ("time.time()/naive datetime.now() in src/ "
                   "(telemetry and timing contracts are monotonic-only)")

    def check_file(self, sf: SourceFile) -> Iterator[Finding]:
        if sf.tree is None or not sf.rel_path.startswith("src/"):
            return
        for node in ast.walk(sf.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name == "time":
                        yield sf.finding(
                            node, self.code,
                            "importing time.time; durations in "
                            "telemetry-instrumented code must use "
                            "time.perf_counter()/time.monotonic()")
                continue
            if not isinstance(node, ast.Call):
                continue
            callee = call_name(node)
            if callee is None:
                continue
            if callee in _WALL_CLOCK_CALLS:
                yield sf.finding(
                    node, self.code,
                    f"{callee}() is wall-clock; use time.perf_counter() / "
                    f"time.monotonic() for durations")
                continue
            parts = callee.split(".")
            if parts[-1] == "utcnow" and "datetime" in parts:
                yield sf.finding(
                    node, self.code,
                    "datetime.utcnow() returns a naive timestamp; use "
                    "datetime.now(timezone.utc) for timestamps or a "
                    "monotonic clock for durations")
            elif (parts[-1] in _NAIVE_WHEN_UNARGUED and len(parts) >= 2
                    and parts[-2] in ("datetime", "date")
                    and not node.args and not node.keywords):
                yield sf.finding(
                    node, self.code,
                    f"naive {parts[-2]}.{parts[-1]}(); pass an explicit "
                    f"timezone (datetime.now(timezone.utc)) for timestamps "
                    f"or use a monotonic clock for durations")


RULES.register(MonotonicClockRule.code, MonotonicClockRule)
