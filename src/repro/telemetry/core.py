"""Process-local telemetry: counters, gauges, timers and nested spans.

One :class:`Telemetry` registry per process collects

* **counters** — monotonically increasing integers
  (``telemetry.counter("store.shard_reads").inc()``),
* **gauges** — last-written floats (``telemetry.gauge(name).set(value)``),
* **timers** — flat duration statistics
  (``with telemetry.timer("decompress"): ...``),
* **spans** — nested duration statistics.  ``with telemetry.span(name):``
  pushes ``name`` onto a per-thread stack; statistics are keyed by the
  ``/``-joined stack path, so the recorded spans form a tree
  (``trainer.epoch/step/einsum.run_batched``).

Every duration statistic records ``count`` / ``total`` / ``min`` / ``max`` /
``last`` using monotonic clocks (:func:`time.perf_counter`).  The registry is
thread safe: each thread nests spans on its own stack and all shared state is
updated under a lock.

The process-wide instance (:func:`get_telemetry`) starts in the mode named by
the ``QUGEO_TELEMETRY`` environment variable:

* ``off`` (default, also ``""``/``0``/``false``/``no``) — every handle is a
  shared no-op singleton, so instrumented hot paths pay one attribute check
  and nothing else;
* ``summary`` (also ``1``/``on``/``true``) — aggregate statistics only;
* ``trace`` — summary plus one event record per span, exportable as JSONL
  (:meth:`Telemetry.dump_jsonl`), bounded by :data:`MAX_TRACE_EVENTS`.

The module is dependency-free (stdlib only) and imports nothing from the rest
of the stack except the ASCII-table helper used by
:meth:`Telemetry.profile_table`, so every layer — backends, quantum, seismic,
data, core, benchmarks — can instrument itself without import cycles.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Union

from repro.utils import env

ENV_VAR = env.TELEMETRY

MODES = ("off", "summary", "trace")

_MODE_ALIASES = {
    "": "off", "0": "off", "false": "off", "no": "off", "off": "off",
    "1": "summary", "on": "summary", "true": "summary", "summary": "summary",
    "trace": "trace",
}

#: Trace-mode event cap: beyond it new events are counted as dropped instead
#: of growing the event list without bound.
MAX_TRACE_EVENTS = 200_000


def _resolve_mode(mode: Optional[str]) -> str:
    """Normalise an explicit mode or the ``QUGEO_TELEMETRY`` value."""
    if mode is None:
        mode = env.get_str(ENV_VAR, "off")
    resolved = _MODE_ALIASES.get(str(mode).strip().lower())
    if resolved is None:
        raise ValueError(
            f"unknown telemetry mode {mode!r}; expected one of {MODES} "
            f"(via {ENV_VAR} or an explicit argument)")
    return resolved


class Stat:
    """count / total / min / max / last of a stream of duration samples."""

    __slots__ = ("count", "total", "min", "max", "last")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0
        self.last = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.last = value

    def add_aggregate(self, total: float, count: int) -> None:
        """Fold in a pre-aggregated batch of ``count`` samples.

        Used by hot loops that accumulate a phase total locally (e.g. the
        propagator's per-step Laplacian time) and record once at the end;
        ``min``/``max`` then track per-batch means rather than individual
        samples.
        """
        if count <= 0:
            return
        self.count += count
        self.total += total
        mean = total / count
        if mean < self.min:
            self.min = mean
        if mean > self.max:
            self.max = mean
        self.last = total

    def as_dict(self) -> Dict[str, float]:
        return {"count": self.count, "total": self.total,
                "min": self.min if self.count else 0.0, "max": self.max,
                "last": self.last}


class Counter:
    """A thread-safe monotonically increasing integer."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._value += int(n)

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A last-written float value."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    @property
    def value(self) -> float:
        return self._value


class _NullCounter:
    """Shared no-op counter handed out while telemetry is off."""

    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass

    @property
    def value(self) -> int:
        return 0


class _NullGauge:
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    @property
    def value(self) -> float:
        return 0.0


class _NullSpan:
    """Shared no-op context manager handed out while telemetry is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_SPAN = _NullSpan()


class _Span:
    """Context manager recording one nested span into the registry."""

    __slots__ = ("_telemetry", "name", "_start", "_path")

    def __init__(self, telemetry: "Telemetry", name: str) -> None:
        self._telemetry = telemetry
        self.name = name

    def __enter__(self) -> "_Span":
        stack = self._telemetry._stack()
        stack.append(self.name)
        self._path = "/".join(stack)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        duration = time.perf_counter() - self._start
        self._telemetry._stack().pop()
        self._telemetry._record_span(self.name, self._path, self._start,
                                     duration)


class _Timer:
    """Context manager recording one flat (non-nested) duration sample."""

    __slots__ = ("_telemetry", "name", "_start")

    def __init__(self, telemetry: "Telemetry", name: str) -> None:
        self._telemetry = telemetry
        self.name = name

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._telemetry.record_timer(self.name,
                                     time.perf_counter() - self._start)


class Telemetry:
    """A process-local registry of counters, gauges, timers and spans."""

    def __init__(self, mode: Optional[str] = None) -> None:
        self._mode = _resolve_mode(mode)
        # ``enabled`` is a plain attribute (kept in sync by ``set_mode``)
        # rather than a property: instrumented hot loops check it per
        # iteration, and an attribute load is several times cheaper than a
        # descriptor call.
        self.enabled = self._mode != "off"
        self._lock = threading.Lock()
        self._local = threading.local()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._timers: Dict[str, Stat] = {}
        self._spans: Dict[str, Stat] = {}
        self._events: List[Dict[str, object]] = []
        self._events_dropped = 0
        self._epoch = time.perf_counter()

    # -- mode ------------------------------------------------------------ #
    @property
    def mode(self) -> str:
        return self._mode

    def set_mode(self, mode: str) -> None:
        self._mode = _resolve_mode(mode)
        #: True when any recording happens (``summary`` or ``trace``).
        self.enabled = self._mode != "off"

    @property
    def tracing(self) -> bool:
        return self._mode == "trace"

    # -- handles --------------------------------------------------------- #
    def counter(self, name: str) -> Union[Counter, _NullCounter]:
        if self._mode == "off":
            return NULL_COUNTER
        counter = self._counters.get(name)
        if counter is None:
            with self._lock:
                counter = self._counters.setdefault(name, Counter())
        return counter

    def gauge(self, name: str) -> Union[Gauge, _NullGauge]:
        if self._mode == "off":
            return NULL_GAUGE
        gauge = self._gauges.get(name)
        if gauge is None:
            with self._lock:
                gauge = self._gauges.setdefault(name, Gauge())
        return gauge

    def span(self, name: str) -> Union[_Span, _NullSpan]:
        """Nested duration context manager (keyed by the thread's span path)."""
        if self._mode == "off":
            return NULL_SPAN
        return _Span(self, name)

    def timer(self, name: str) -> Union[_Timer, _NullSpan]:
        """Flat duration context manager (keyed by ``name`` alone)."""
        if self._mode == "off":
            return NULL_SPAN
        return _Timer(self, name)

    def record_timer(self, name: str, seconds: float, count: int = 1) -> None:
        """Record ``count`` samples totalling ``seconds`` under timer ``name``."""
        if self._mode == "off":
            return
        with self._lock:
            stat = self._timers.setdefault(name, Stat())
            if count == 1:
                stat.add(seconds)
            else:
                stat.add_aggregate(seconds, count)

    # -- span recording -------------------------------------------------- #
    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record_span(self, name: str, path: str, start: float,
                     duration: float) -> None:
        with self._lock:
            self._spans.setdefault(path, Stat()).add(duration)
            if self._mode == "trace":
                if len(self._events) < MAX_TRACE_EVENTS:
                    self._events.append({
                        "name": name,
                        "path": path,
                        "ts": start - self._epoch,
                        "dur": duration,
                        "thread": threading.get_ident(),
                    })
                else:
                    self._events_dropped += 1

    # -- export ----------------------------------------------------------- #
    def span_totals(self) -> Dict[str, float]:
        """``{path: total seconds}`` for every recorded span path."""
        with self._lock:
            return {path: stat.total for path, stat in self._spans.items()}

    def snapshot(self) -> Dict[str, object]:
        """A JSON-serialisable copy of everything recorded so far."""
        with self._lock:
            return {
                "mode": self._mode,
                "counters": {name: counter.value
                             for name, counter in self._counters.items()},
                "gauges": {name: gauge.value
                           for name, gauge in self._gauges.items()},
                "timers": {name: stat.as_dict()
                           for name, stat in self._timers.items()},
                "spans": {path: stat.as_dict()
                          for path, stat in self._spans.items()},
                "trace_events": len(self._events),
                "trace_events_dropped": self._events_dropped,
            }

    def trace_events(self) -> List[Dict[str, object]]:
        """Copy of the recorded trace events (``trace`` mode only)."""
        with self._lock:
            return [dict(event) for event in self._events]

    def dump_jsonl(self, path) -> None:
        """Write the snapshot (and, in ``trace`` mode, every span event) as JSONL.

        One JSON object per line: a ``meta`` record, one record per counter /
        gauge / timer / span, then (in ``trace`` mode) one ``event`` record
        per recorded span occurrence.
        """
        snapshot = self.snapshot()
        lines = [json.dumps({"kind": "meta", "mode": snapshot["mode"],
                             "trace_events": snapshot["trace_events"],
                             "trace_events_dropped":
                                 snapshot["trace_events_dropped"]})]
        for kind in ("counters", "gauges"):
            for name, value in sorted(snapshot[kind].items()):
                lines.append(json.dumps(
                    {"kind": kind[:-1], "name": name, "value": value}))
        for kind in ("timers", "spans"):
            for name, stats in sorted(snapshot[kind].items()):
                record = {"kind": kind[:-1], "name": name}
                record.update(stats)
                lines.append(json.dumps(record))
        for event in self.trace_events():
            record = {"kind": "event"}
            record.update(event)
            lines.append(json.dumps(record))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")

    def profile_table(self) -> str:
        """ASCII profile of the recorded spans, timers and counters."""
        from repro.telemetry.report import render_report
        return render_report(self.snapshot())

    # -- lifecycle --------------------------------------------------------- #
    def reset(self) -> None:
        """Drop every recorded value (mode is kept)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._timers.clear()
            self._spans.clear()
            self._events = []
            self._events_dropped = 0
            self._epoch = time.perf_counter()


# --------------------------------------------------------------------------- #
# the process-wide instance
# --------------------------------------------------------------------------- #
_instance: Optional[Telemetry] = None
_instance_lock = threading.Lock()


def get_telemetry() -> Telemetry:
    """The process-wide registry (created on first use from ``QUGEO_TELEMETRY``)."""
    global _instance
    if _instance is None:
        with _instance_lock:
            if _instance is None:
                _instance = Telemetry()
    return _instance


def configure(mode: str, reset: bool = False) -> Telemetry:
    """Switch the process-wide registry to ``mode`` (optionally clearing it)."""
    telemetry = get_telemetry()
    telemetry.set_mode(mode)
    if reset:
        telemetry.reset()
    return telemetry


@contextmanager
def capture(mode: str = "summary") -> Iterator[Telemetry]:
    """Temporarily record telemetry: fresh registry state in ``mode``.

    For tests and ad-hoc profiling::

        with capture("summary") as telem:
            run_workload()
            assert telem.snapshot()["counters"]["store.shard_reads"] > 0

    The previous mode is restored (and the registry cleared) on exit, so
    take a snapshot — or render the report, ``render_report(telem)`` — inside
    the block: one taken after it says "nothing recorded".
    """
    telemetry = get_telemetry()
    previous = telemetry.mode
    telemetry.set_mode(mode)
    telemetry.reset()
    try:
        yield telemetry
    finally:
        telemetry.set_mode(previous)
        telemetry.reset()
