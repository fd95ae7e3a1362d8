"""The time-loop name recorded by the pipeline benchmark."""

from __future__ import annotations

from types import SimpleNamespace


def resolve_kernel(spec=None):
    """Return ``(kernel, None)`` whose ``kernel.name`` is ``"python"``.

    Exists only for the benchmark's resolved-engine record: the batched
    propagator runs one numpy time loop, which that record names
    ``"python"`` with no fallback.
    """
    return SimpleNamespace(name="python"), None
