"""The registry contract of the lint-rule table.

Each test builds a throwaway :class:`Registry`, so the global ``RULES``
table is never mutated here.
"""

from __future__ import annotations

import pytest

from repro.utils.registry import DuplicateNameError, Registry, UnknownNameError


class Engine:
    pass


class Other:
    pass


def make_registry() -> Registry[Engine]:
    table: Registry[Engine] = Registry("test engine", Engine)
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


def test_env_var_selects_default(monkeypatch):
    """No environment variable or default name selects an entry: the
    constructor takes neither, and the environment changes no lookup."""
    with pytest.raises(TypeError):
        Registry("test engine", "QUGEO_TEST_ENGINE", "alpha", Engine)
    table = make_registry()
    monkeypatch.setenv("QUGEO_TEST_ENGINE", "beta")
    assert not hasattr(table, "default_name")
    assert table.get("alpha") is not table.get("beta")


def test_table_without_default_needs_a_name():
    table = make_registry()
    with pytest.raises(TypeError):
        table.get()
    with pytest.raises(TypeError, match="a name or a Engine"):
        table.get(None)


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
