"""One string-keyed engine table: :class:`Registry`.

Every pluggable layer of the stack (simulation backends, lint rules) is a
module-level ``Registry`` instance; the acoustic propagator has one engine
and no table.  Engines register a zero-argument
factory under a short name; :meth:`Registry.get` resolves, in order,

1. a ready instance passed by the caller (returned as-is after the owner's
   type check);
2. a registered name;
3. ``None``: the table's environment variable, else its default name.

Factories run lazily on first lookup and their result is cached per name.

The module depends only on the standard library and the stdlib-only
:mod:`repro.utils.env`.
"""

from __future__ import annotations

from typing import Callable, Dict, Generic, List, Optional, TypeVar, Union

from repro.utils import env

T = TypeVar("T")


class UnknownNameError(KeyError):
    """Raised when resolving a name no engine was registered under."""

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

    ``kind`` labels the table in error messages; ``env_var`` and
    ``default`` give the name :meth:`get` resolves for ``None``.
    ``instance_type`` (a class or ABC) checks ready instances passed to
    :meth:`get` and the objects factories build.
    """

    def __init__(self, kind: str, env_var: Optional[str],
                 default: Optional[str], instance_type: type) -> None:
        self.kind = kind
        self._env_var = env_var
        self._default = default
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
        """Sorted names of every registered engine."""
        return sorted(self._factories)

    def default_name(self) -> str:
        """The name :meth:`get` resolves when given ``None``."""
        name = self._default
        if self._env_var is not None:
            name = env.get_str(self._env_var, name)
        if name is None:
            raise TypeError(f"{self.kind} lookups need an explicit name")
        return name

    def get(self, spec: Union[None, str, T] = None) -> T:
        """Resolve ``spec`` (``None``, a name or a ready instance)."""
        if spec is None:
            spec = self.default_name()
        if isinstance(spec, str):
            return self._instance(spec)
        if not isinstance(spec, self._type):
            raise TypeError(
                f"{self.kind} spec must be None, a name or a "
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
