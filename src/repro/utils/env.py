"""Central parsing of the ``QUGEO_*`` environment variables.

Every process-level switch of the stack is an environment variable with the
``QUGEO_`` prefix.  Historically each subsystem parsed its own variable
inline (``telemetry/core.py``, the benchmark harness, ...); this module
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
==========================  =====================================================

Use :func:`describe` to see every known variable with its current value.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Prefix shared by every environment switch of the stack.
ENV_PREFIX = "QUGEO_"

# Canonical variable names (import these instead of retyping strings).
TELEMETRY = "QUGEO_TELEMETRY"
BENCH_SCALE = "QUGEO_BENCH_SCALE"
CACHE_DIR = "QUGEO_CACHE_DIR"
DATAGEN_WORKERS = "QUGEO_DATAGEN_WORKERS"
CHECKPOINT_DIR = "QUGEO_CHECKPOINT_DIR"


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
