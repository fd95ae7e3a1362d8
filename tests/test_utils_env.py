"""Tests of the centralised ``QUGEO_*`` environment-variable parsing.

``repro.utils.env`` is the single place that knows the variable names,
defaults and coercions; these tests pin that contract and check that the
subsystems which used to parse their variables inline now resolve through
it.
"""

from __future__ import annotations

import pytest

from repro.utils import env


# --------------------------------------------------------------------------- #
# parsing primitives
# --------------------------------------------------------------------------- #
def test_get_str_unset_and_empty_fall_back(monkeypatch):
    monkeypatch.delenv(env.CHECKPOINT_DIR, raising=False)
    assert env.get_str(env.CHECKPOINT_DIR, "checkpoints") == "checkpoints"
    assert env.get_str(env.CHECKPOINT_DIR) is None
    monkeypatch.setenv(env.CHECKPOINT_DIR, "")
    assert env.get_str(env.CHECKPOINT_DIR, "checkpoints") == "checkpoints"
    monkeypatch.setenv(env.CHECKPOINT_DIR, "runs")
    assert env.get_str(env.CHECKPOINT_DIR, "checkpoints") == "runs"


def test_get_choice_normalises_and_validates(monkeypatch):
    monkeypatch.setenv(env.BENCH_SCALE, "  MEDIUM ")
    assert env.get_choice(env.BENCH_SCALE, "small",
                          ("small", "medium", "full")) == "medium"
    monkeypatch.setenv(env.BENCH_SCALE, "galactic")
    with pytest.raises(ValueError, match="QUGEO_BENCH_SCALE"):
        env.get_choice(env.BENCH_SCALE, "small", ("small", "medium", "full"))


def test_get_int_parses_and_bounds(monkeypatch):
    monkeypatch.delenv(env.DATAGEN_WORKERS, raising=False)
    assert env.get_int(env.DATAGEN_WORKERS) is None
    assert env.get_int(env.DATAGEN_WORKERS, 4) == 4
    monkeypatch.setenv(env.DATAGEN_WORKERS, "8")
    assert env.get_int(env.DATAGEN_WORKERS, minimum=1) == 8
    monkeypatch.setenv(env.DATAGEN_WORKERS, "0")
    with pytest.raises(ValueError, match=">= 1"):
        env.get_int(env.DATAGEN_WORKERS, minimum=1)
    monkeypatch.setenv(env.DATAGEN_WORKERS, "many")
    with pytest.raises(ValueError, match="integer"):
        env.get_int(env.DATAGEN_WORKERS)


def test_known_vars_documented_and_prefixed():
    names = [var.name for var in env.KNOWN_VARS]
    assert len(names) == len(set(names))
    for var in env.KNOWN_VARS:
        assert var.name.startswith(env.ENV_PREFIX)
        assert var.description
    # The canonical constants all appear in the documentation table.
    for name in (env.TELEMETRY, env.BENCH_SCALE, env.CACHE_DIR,
                 env.DATAGEN_WORKERS, env.CHECKPOINT_DIR):
        assert name in names


def test_describe_reports_current_values(monkeypatch):
    monkeypatch.setenv(env.BENCH_SCALE, "medium")
    monkeypatch.delenv(env.CACHE_DIR, raising=False)
    table = env.describe()
    assert table[env.BENCH_SCALE]["value"] == "medium"
    assert table[env.BENCH_SCALE]["default"] == "small"
    assert table[env.CACHE_DIR]["value"] is None


# --------------------------------------------------------------------------- #
# the subsystems resolve through the central module
# --------------------------------------------------------------------------- #
def test_backend_default_resolves_via_env(monkeypatch):
    """No variable reaches the default engine: neither its name nor its
    precision is a setting."""
    from repro.backends import EinsumBatchBackend, get_backend

    for name in ("BACKEND", "DTYPE"):
        assert not hasattr(env, name)
        assert f"QUGEO_{name}" not in env.describe()
        monkeypatch.setenv(f"QUGEO_{name}", "numpy")
    assert isinstance(get_backend(), EinsumBatchBackend)


def test_telemetry_mode_resolves_via_env(monkeypatch):
    from repro.telemetry.core import _resolve_mode

    monkeypatch.setenv(env.TELEMETRY, "summary")
    assert _resolve_mode(None) == "summary"
    monkeypatch.setenv(env.TELEMETRY, "")
    assert _resolve_mode(None) == "off"
    monkeypatch.setenv(env.TELEMETRY, "nonsense")
    with pytest.raises(ValueError):
        _resolve_mode(None)

