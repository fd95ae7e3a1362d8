"""Central parsing of the ``QUGEO_*`` environment variables.

Every process-level switch of the stack is an environment variable with the
``QUGEO_`` prefix.  Historically each subsystem parsed its own variable
inline (``telemetry/core.py``, ``benchmarks/common.py``, ...); this module
is now the single place that knows the variable names, their defaults and
how to coerce their values, so the documented behaviour cannot drift
between call sites.

The module is stdlib-only and imports nothing from the rest of the stack,
so every layer (including :mod:`repro.telemetry`, which must stay
dependency-free) can use it without import cycles.

Known variables
---------------

==========================  =====================================================
Variable                    Meaning (default)
==========================  =====================================================
``QUGEO_TELEMETRY``         Telemetry mode (``off``; ``summary`` / ``trace``)
``QUGEO_BENCH_SCALE``       Benchmark scale (``small``; ``medium`` / ``full``)
``QUGEO_CACHE_DIR``         Sharded dataset-store directory (unset = no cache)
``QUGEO_DATAGEN_WORKERS``   Process-pool size for cold dataset builds (serial)
``QUGEO_CHECKPOINT_DIR``    Where example scripts write checkpoints
                            (``checkpoints``)
``QUGEO_ROBUSTNESS_MAX_RETRIES``  Chunk-retry / pool-respawn budget of the
                            parallel dataset generator (``2``)
``QUGEO_ROBUSTNESS_BACKOFF``  Base retry backoff in seconds, doubled per
                            attempt and capped at 10x (``0.1``)
``QUGEO_ROBUSTNESS_VALIDATE``  Shard checksum validation on store open
                            (``on``; ``off`` skips integrity scans)
``QUGEO_ROBUSTNESS_CHAOS``  Fault-injection spec for tests/CI (unset; e.g.
                            ``kill-worker:2:/tmp/marker`` kills the pool
                            worker building chunk 2, once)
==========================  =====================================================

Use :func:`describe` to see every known variable with its current value.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

#: Prefix shared by every environment switch of the stack.
ENV_PREFIX = "QUGEO_"

# Canonical variable names (import these instead of retyping strings).
TELEMETRY = "QUGEO_TELEMETRY"
BENCH_SCALE = "QUGEO_BENCH_SCALE"
CACHE_DIR = "QUGEO_CACHE_DIR"
DATAGEN_WORKERS = "QUGEO_DATAGEN_WORKERS"
CHECKPOINT_DIR = "QUGEO_CHECKPOINT_DIR"
ROBUSTNESS_MAX_RETRIES = "QUGEO_ROBUSTNESS_MAX_RETRIES"
ROBUSTNESS_BACKOFF = "QUGEO_ROBUSTNESS_BACKOFF"
ROBUSTNESS_VALIDATE = "QUGEO_ROBUSTNESS_VALIDATE"
ROBUSTNESS_CHAOS = "QUGEO_ROBUSTNESS_CHAOS"


@dataclass(frozen=True)
class EnvVar:
    """Documentation record of one known environment variable."""

    name: str
    default: Optional[str]
    description: str
    choices: Tuple[str, ...] = ()


#: Every known variable with its documented default, in display order.
KNOWN_VARS: Tuple[EnvVar, ...] = (
    EnvVar(TELEMETRY, "off", "telemetry mode", ("off", "summary", "trace")),
    EnvVar(BENCH_SCALE, "small", "benchmark scale",
           ("small", "medium", "full")),
    EnvVar(CACHE_DIR, None, "sharded dataset-store directory"),
    EnvVar(DATAGEN_WORKERS, None, "worker-pool size for cold dataset builds"),
    EnvVar(CHECKPOINT_DIR, "checkpoints",
           "checkpoint directory for example scripts"),
    EnvVar(ROBUSTNESS_MAX_RETRIES, "2",
           "chunk-retry / pool-respawn budget of the parallel generator"),
    EnvVar(ROBUSTNESS_BACKOFF, "0.1",
           "base retry backoff seconds (doubled per attempt, capped at 10x)"),
    EnvVar(ROBUSTNESS_VALIDATE, "on",
           "shard checksum validation on store open", ("on", "off")),
    EnvVar(ROBUSTNESS_CHAOS, None,
           "fault-injection spec for tests/CI "
           "(kill-worker:<chunk>:<marker> | raise-once:<chunk>:<marker>)"),
)


def get_str(name: str, default: Optional[str] = None) -> Optional[str]:
    """The raw value of ``name``; empty / unset values fall back to ``default``."""
    value = os.environ.get(name)
    if value is None or value == "":
        return default
    return value


def get_choice(name: str, default: str, choices) -> str:
    """A lower-cased value restricted to ``choices``.

    Raises :class:`ValueError` naming the variable and the allowed values
    when the environment holds anything else, so typos fail loudly instead
    of silently selecting a default.
    """
    value = get_str(name, default)
    value = str(value).strip().lower()
    if value not in choices:
        raise ValueError(
            f"{name} must be one of {sorted(choices)}, got {value!r}")
    return value


def get_int(name: str, default: Optional[int] = None,
            minimum: Optional[int] = None) -> Optional[int]:
    """An integer value (``None`` when unset and no default is given)."""
    raw = get_str(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def get_float(name: str, default: Optional[float] = None,
              minimum: Optional[float] = None) -> Optional[float]:
    """A float value (``None`` when unset and no default is given)."""
    raw = get_str(name)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {raw!r}") from None
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def get_flag(name: str, default: bool = False) -> bool:
    """A boolean switch (``on``/``1``/``true``/``yes`` vs ``off``/``0``/...)."""
    raw = get_str(name)
    if raw is None:
        return default
    value = raw.strip().lower()
    if value in ("on", "1", "true", "yes"):
        return True
    if value in ("off", "0", "false", "no"):
        return False
    raise ValueError(f"{name} must be a boolean switch (on/off), got {raw!r}")


def get_path(name: str, default: Optional[str] = None) -> Optional[str]:
    """A filesystem path value (no existence check), or ``default``."""
    return get_str(name, default)


def set_var(name: str, value: Optional[str]) -> None:
    """Set (or, with ``None``, unset) a ``QUGEO_*`` variable for this process.

    This is the single sanctioned write path to the process environment —
    the invariant linter's QG001 rule flags direct ``os.environ`` writes
    anywhere else, so every export is findable here.  ``name`` must carry
    the ``QUGEO_`` prefix: this module owns the stack's switches, not the
    host environment at large.
    """
    if not name.startswith(ENV_PREFIX):
        raise ValueError(
            f"set_var only manages {ENV_PREFIX}* variables, got {name!r}")
    if value is None:
        os.environ.pop(name, None)
    else:
        os.environ[name] = str(value)


@contextlib.contextmanager
def scoped(name: str, value: Optional[str]) -> Iterator[None]:
    """Temporarily override a ``QUGEO_*`` variable, restoring it on exit.

    Useful in tests and benchmark sweeps that pivot an engine switch for
    one measurement without leaking it to later cases.
    """
    if not name.startswith(ENV_PREFIX):
        raise ValueError(
            f"scoped only manages {ENV_PREFIX}* variables, got {name!r}")
    previous = os.environ.get(name)
    set_var(name, value)
    try:
        yield
    finally:
        set_var(name, previous)


def describe() -> Dict[str, Dict[str, Optional[str]]]:
    """Current value + documented default of every known variable.

    Handy for embedding in benchmark metadata and for debugging "why is it
    using that engine" questions.
    """
    return {
        var.name: {
            "value": get_str(var.name),
            "default": var.default,
            "description": var.description,
        }
        for var in KNOWN_VARS
    }
