"""String-keyed registry of simulation backends.

Engines register a factory under a short name (``"numpy"``, ``"einsum"``,
...) and callers resolve them with :func:`get_backend`.  Resolution order for
the default backend mirrors entry-point-style tooling:

1. an explicit name (or ready instance) passed by the caller — e.g. from
   :attr:`repro.core.config.QuGeoVQCConfig.backend`;
2. the ``QUGEO_BACKEND`` environment variable;
3. the process-wide default set with :func:`set_default_backend`
   (``"einsum"`` out of the box, the vectorised batched engine; ``"numpy"``
   stays registered as the per-gate reference oracle).

Factories are instantiated lazily and the instances cached, so repeated
``get_backend("einsum")`` calls share one engine (and therefore its memoised
gate tensors and einsum subscripts).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Union

from repro.backends.base import SimulationBackend
from repro.utils import env

#: Environment variable consulted when no explicit backend is requested.
BACKEND_ENV_VAR = env.BACKEND

_FACTORIES: Dict[str, Callable[[], SimulationBackend]] = {}
_INSTANCES: Dict[str, SimulationBackend] = {}
_DEFAULT_NAME = "einsum"

BackendSpec = Union[None, str, SimulationBackend]


class BackendError(RuntimeError):
    """Base class for backend registry failures."""


class UnknownBackendError(BackendError, KeyError):
    """Raised when resolving a name no engine was registered under."""

    def __init__(self, name: str) -> None:
        self.name = name
        available = ", ".join(sorted(_FACTORIES)) or "<none>"
        super().__init__(
            f"unknown simulation backend {name!r}; registered backends: "
            f"{available}")

    def __str__(self) -> str:  # KeyError would quote the repr of args[0]
        return self.args[0]


class DuplicateBackendError(BackendError, ValueError):
    """Raised when registering a name that is already taken."""

    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(
            f"simulation backend {name!r} is already registered; pass "
            f"replace=True to override it")


def register_backend(name: str,
                     factory: Callable[[], SimulationBackend],
                     *, replace: bool = False) -> None:
    """Register ``factory`` (a zero-arg callable) under ``name``.

    Registering an existing name raises :class:`DuplicateBackendError`
    unless ``replace=True``, in which case any cached instance is dropped.
    """
    if not name or not isinstance(name, str):
        raise ValueError("backend name must be a non-empty string")
    if not callable(factory):
        raise TypeError("backend factory must be callable")
    if name in _FACTORIES and not replace:
        raise DuplicateBackendError(name)
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def unregister_backend(name: str) -> None:
    """Remove ``name`` from the registry (mainly for tests)."""
    if name not in _FACTORIES:
        raise UnknownBackendError(name)
    del _FACTORIES[name]
    _INSTANCES.pop(name, None)


def available_backends() -> List[str]:
    """Sorted names of every registered engine."""
    return sorted(_FACTORIES)


def default_backend_name() -> str:
    """The name :func:`get_backend` resolves when given ``None``."""
    return env.get_str(env.BACKEND, _DEFAULT_NAME)


def set_default_backend(name: str) -> None:
    """Set the process-wide default engine (must already be registered)."""
    global _DEFAULT_NAME
    if name not in _FACTORIES:
        raise UnknownBackendError(name)
    _DEFAULT_NAME = name


def get_backend(spec: BackendSpec = None) -> SimulationBackend:
    """Resolve ``spec`` to a ready :class:`SimulationBackend` instance.

    ``spec`` may be ``None`` (use the environment / process default), a
    registered name, or an already-constructed backend (returned as-is, so
    callers can thread a custom engine through without registering it).
    """
    if isinstance(spec, SimulationBackend):
        return spec
    if spec is None:
        spec = default_backend_name()
    if not isinstance(spec, str):
        raise TypeError(
            f"backend spec must be None, a name or a SimulationBackend, "
            f"got {type(spec).__name__}")
    if spec not in _FACTORIES:
        raise UnknownBackendError(spec)
    if spec not in _INSTANCES:
        instance = _FACTORIES[spec]()
        if not isinstance(instance, SimulationBackend):
            raise TypeError(
                f"factory for backend {spec!r} returned "
                f"{type(instance).__name__}, not a SimulationBackend")
        _INSTANCES[spec] = instance
    return _INSTANCES[spec]
