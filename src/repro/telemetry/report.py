"""Human-readable rendering of a telemetry snapshot.

The span statistics are path-keyed (``trainer.epoch/step/einsum.run_batched``)
and render as an indented tree; timers, counters and gauges render as flat
tables.  All tables go through :func:`repro.utils.tables.format_table`, the
same helper the benchmark harnesses use.
"""

from __future__ import annotations

from typing import Dict, List, Union

from repro.telemetry.core import Telemetry
from repro.utils.tables import format_table


def _ms(seconds: float) -> float:
    return seconds * 1e3


def spans_table(snapshot: Dict[str, object]) -> str:
    """Indented span tree with count / total / mean / min / max columns."""
    spans = snapshot.get("spans", {})
    rows: List[List[object]] = []
    for path in sorted(spans):
        stats = spans[path]
        depth = path.count("/")
        leaf = path.rsplit("/", 1)[-1]
        mean = stats["total"] / stats["count"] if stats["count"] else 0.0
        rows.append(["  " * depth + leaf, stats["count"],
                     f"{stats['total']:.4f}", f"{_ms(mean):.3f}",
                     f"{_ms(stats['min']):.3f}", f"{_ms(stats['max']):.3f}"])
    return format_table(
        ["span", "count", "total s", "mean ms", "min ms", "max ms"], rows,
        title="Telemetry spans")


def timers_table(snapshot: Dict[str, object]) -> str:
    timers = snapshot.get("timers", {})
    rows = []
    for name in sorted(timers):
        stats = timers[name]
        mean = stats["total"] / stats["count"] if stats["count"] else 0.0
        rows.append([name, stats["count"], f"{stats['total']:.4f}",
                     f"{_ms(mean):.3f}", f"{_ms(stats['min']):.3f}",
                     f"{_ms(stats['max']):.3f}"])
    return format_table(
        ["timer", "count", "total s", "mean ms", "min ms", "max ms"], rows,
        title="Telemetry timers")


def counters_table(snapshot: Dict[str, object]) -> str:
    rows: List[List[object]] = [[name, value] for name, value
                                in sorted(snapshot.get("counters", {}).items())]
    rows.extend([name, f"{value:.6g}"] for name, value
                in sorted(snapshot.get("gauges", {}).items()))
    return format_table(["counter / gauge", "value"], rows,
                        title="Telemetry counters")


def render_report(source: Union[Telemetry, Dict[str, object]]) -> str:
    """Full profile: span tree, then timers, then counters and gauges.

    ``source`` is a snapshot dict or a :class:`Telemetry` registry (such as
    the one :func:`~repro.telemetry.capture` yields), whose current snapshot
    is rendered.  Sections with nothing recorded are omitted; an entirely
    empty snapshot renders as a one-line notice.
    """
    snapshot = source.snapshot() if isinstance(source, Telemetry) else source
    sections = []
    if snapshot.get("spans"):
        sections.append(spans_table(snapshot))
    if snapshot.get("timers"):
        sections.append(timers_table(snapshot))
    if snapshot.get("counters") or snapshot.get("gauges"):
        sections.append(counters_table(snapshot))
    if not sections:
        return (f"Telemetry: nothing recorded "
                f"(mode={snapshot.get('mode', 'off')})")
    return "\n\n".join(sections)
