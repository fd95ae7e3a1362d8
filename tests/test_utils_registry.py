"""The one registry contract every engine table shares.

Each test builds a throwaway :class:`Registry`, so the global tables
(``BACKENDS``, ``PROPAGATORS``, ``KERNELS``, ``ARRAY_MODULES``, ``RULES``)
are never mutated here.
"""

from __future__ import annotations

import pytest

from repro.utils import env
from repro.utils.registry import (
    DuplicateNameError,
    Registry,
    UnavailableError,
    UnknownNameError,
)


class Engine:
    pass


class Other:
    pass


def make_registry() -> Registry[Engine]:
    table: Registry[Engine] = Registry("test engine", env.BACKEND, "alpha",
                                       Engine)
    table.register("alpha", Engine)
    table.register("beta", Engine)
    return table


def test_unknown_name_lists_registered_names():
    with pytest.raises(UnknownNameError) as excinfo:
        make_registry().get("gamma")
    message = str(excinfo.value)
    assert "test engine 'gamma'" in message
    assert "alpha, beta" in message
    assert isinstance(excinfo.value, KeyError)


def test_duplicate_registration_and_replace():
    table = make_registry()
    first = table.get("alpha")
    with pytest.raises(DuplicateNameError):
        table.register("alpha", Engine)
    table.register("alpha", Engine, replace=True)
    replaced = table.get("alpha")
    assert replaced is not first  # the cached instance was dropped
    assert table.names() == ["alpha", "beta"]


def test_register_rejects_bad_inputs():
    table = make_registry()
    with pytest.raises(ValueError):
        table.register("", Engine)
    with pytest.raises(TypeError):
        table.register("gamma", object())
    assert table.names() == ["alpha", "beta"]


def test_one_cached_instance_per_name():
    calls = []

    def factory():
        calls.append(1)
        return Engine()

    table = make_registry()
    table.register("counted", factory)
    assert table.get("counted") is table.get("counted")
    assert table.get("alpha") is not table.get("beta")
    assert len(calls) == 1


def test_unavailable_factory_is_listed_but_not_available():
    def missing():
        raise UnavailableError("test engine 'gamma' needs a missing package")

    table = make_registry()
    table.register("gamma", missing)
    assert "gamma" in table.names()
    assert table.available("alpha")
    assert not table.available("gamma")
    assert not table.available("delta")  # never registered
    with pytest.raises(UnavailableError, match="missing package"):
        table.get("gamma")


def test_env_var_selects_default(monkeypatch):
    table = make_registry()
    monkeypatch.delenv(env.BACKEND, raising=False)
    assert table.default_name() == "alpha"
    assert table.get() is table.get("alpha")
    monkeypatch.setenv(env.BACKEND, "beta")
    assert table.default_name() == "beta"
    assert table.get() is table.get("beta")


def test_table_without_default_needs_a_name():
    table: Registry[Engine] = Registry("test engine", None, None, Engine)
    with pytest.raises(TypeError):
        table.get()


def test_ready_instance_passes_through():
    instance = Engine()
    assert make_registry().get(instance) is instance


def test_bad_spec_raises_type_error():
    table = make_registry()
    with pytest.raises(TypeError, match="test engine spec"):
        table.get(42)
    with pytest.raises(TypeError, match="Engine"):
        table.get(Other())


def test_factory_result_is_type_checked():
    table = make_registry()
    table.register("wrong", Other)
    with pytest.raises(TypeError, match="returned Other"):
        table.get("wrong")
