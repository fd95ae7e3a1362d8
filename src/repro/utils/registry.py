"""One string-keyed table: :class:`Registry`.

The lint rules (:data:`repro.analysis.registry.RULES`) are its one table;
the simulation engine and the acoustic propagator have no table.  Entries
register a zero-argument factory under a short name; :meth:`Registry.get`
resolves a registered name, or returns a ready instance as it is after a
type check.  Factories run lazily on first lookup and their result is
cached per name.

The module depends only on the standard library.
"""

from __future__ import annotations

from typing import Callable, Dict, Generic, List, TypeVar, Union

T = TypeVar("T")


class UnknownNameError(KeyError):
    """Raised when resolving a name nothing was registered under."""

    def __init__(self, kind: str, name: str, registered: List[str]) -> None:
        super().__init__(
            f"unknown {kind} {name!r}; registered: "
            f"{', '.join(registered) or '<none>'}")

    def __str__(self) -> str:  # KeyError would quote the repr of args[0]
        return str(self.args[0])


class DuplicateNameError(ValueError):
    """Raised when registering a name that is already taken."""


class Registry(Generic[T]):
    """Name -> lazily built, cached instance of ``instance_type``.

    ``kind`` labels the table in error messages.  ``instance_type`` (a
    class or ABC) checks ready instances passed to :meth:`get` and the
    objects factories build.
    """

    def __init__(self, kind: str, instance_type: type) -> None:
        self.kind = kind
        self._type = instance_type
        self._factories: Dict[str, Callable[[], T]] = {}
        self._instances: Dict[str, T] = {}

    def register(self, name: str, factory: Callable[[], T],
                 *, replace: bool = False) -> None:
        """Register a zero-argument ``factory`` under ``name``.

        An existing name raises :class:`DuplicateNameError` unless
        ``replace=True``, which also drops the cached instance.
        """
        if not name or not isinstance(name, str):
            raise ValueError(f"{self.kind} name must be a non-empty string")
        if not callable(factory):
            raise TypeError(f"{self.kind} factory must be callable")
        if name in self._factories and not replace:
            raise DuplicateNameError(
                f"{self.kind} {name!r} is already registered; pass "
                f"replace=True to override it")
        self._factories[name] = factory
        self._instances.pop(name, None)

    def names(self) -> List[str]:
        """Sorted names of every registered entry."""
        return sorted(self._factories)

    def get(self, spec: Union[str, T]) -> T:
        """Resolve ``spec`` (a name or a ready instance)."""
        if isinstance(spec, str):
            return self._instance(spec)
        if not isinstance(spec, self._type):
            raise TypeError(
                f"{self.kind} spec must be a name or a "
                f"{self._type.__name__}, got {type(spec).__name__}")
        return spec

    def _instance(self, name: str) -> T:
        if name in self._instances:
            return self._instances[name]
        if name not in self._factories:
            raise UnknownNameError(self.kind, name, self.names())
        instance = self._factories[name]()
        if not isinstance(instance, self._type):
            raise TypeError(
                f"factory for {self.kind} {name!r} returned "
                f"{type(instance).__name__}, not a {self._type.__name__}")
        self._instances[name] = instance
        return instance
