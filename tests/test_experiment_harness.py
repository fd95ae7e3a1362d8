"""Tests for the experiment harness behind the paper's figures and tables.

The harness (:mod:`repro.core.experiment`) caches the dataset splits, the
scaled datasets and the trained models per process.  Each test swaps the
``small`` tier for a tiny one and clears every cache before and after, so
nothing built here leaks into another test.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core import experiment
from repro.core.data_scaling import CNNScaler
from repro.utils import env

TINY = experiment.BenchScale(name="small", n_samples=6, n_train=4,
                             velocity_shape=(16, 16), n_time_steps=60,
                             n_sources=2, epochs=1, classical_epochs=1,
                             compressor_epochs=1, n_blocks=1, batch_size=2)

CACHED = (experiment.raw_splits, experiment.scaler, experiment.scaled_datasets,
          experiment.trained_quantum_model, experiment.trained_classical_model)


def clear_caches():
    for function in CACHED:
        function.cache_clear()


@pytest.fixture()
def tiny_tier(monkeypatch):
    monkeypatch.setitem(experiment._SCALES, "small", TINY)
    for name in (env.BENCH_SCALE, env.CACHE_DIR, env.DATAGEN_WORKERS):
        monkeypatch.delenv(name, raising=False)
    clear_caches()
    yield TINY
    clear_caches()


def fingerprints(dataset):
    return {sample.seismic.tobytes() for sample in dataset}


def test_split_sizes_and_disjoint_compressor_split(tiny_tier):
    train, test, compressor = experiment.raw_splits()
    assert len(train) == tiny_tier.n_train
    assert len(test) == tiny_tier.n_samples - tiny_tier.n_train
    assert len(compressor) == max(8, tiny_tier.n_samples // 4)
    held_out = fingerprints(compressor)
    assert len(held_out) == len(compressor)
    assert not held_out & fingerprints(train)
    assert not held_out & fingerprints(test)
    assert not fingerprints(train) & fingerprints(test)


@pytest.mark.parametrize("method", ["D-Sample", "Q-D-FW"])
def test_scaled_datasets_are_cached_with_paper_shapes(tiny_tier, method):
    scaled = experiment.scaled_datasets(method)
    assert experiment.scaled_datasets(method) is scaled
    config = experiment.data_config()
    train, test = scaled
    assert (len(train), len(test)) == (tiny_tier.n_train,
                                       tiny_tier.n_samples - tiny_tier.n_train)
    for sample in list(train) + list(test):
        assert sample.seismic.shape == config.scaled_seismic_shape
        assert sample.velocity.shape == config.scaled_velocity_shape


def test_unknown_scaling_method_is_rejected(tiny_tier):
    with pytest.raises(ValueError, match="Q-D-FW"):
        experiment.scaler("bilinear")


def test_cache_dir_rebuild_skips_forward_modelling(tiny_tier, monkeypatch,
                                                   tmp_path, counting_forward):
    monkeypatch.setenv(env.CACHE_DIR, str(tmp_path))
    first = experiment.raw_splits()
    assert counting_forward["calls"] > 0
    experiment.raw_splits.cache_clear()
    counting_forward["calls"] = 0
    second = experiment.raw_splits()
    assert second is not first
    assert counting_forward["calls"] == 0
    for cold, warm in zip(first, second):
        np.testing.assert_array_equal(cold.seismic_array(), warm.seismic_array())


def test_physics_guided_scaling_does_not_train_the_compressor(tiny_tier,
                                                              monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Q-D-FW scaling trained the Q-D-CNN compressor")

    monkeypatch.setattr(CNNScaler, "train", refuse)
    experiment.scaled_datasets("Q-D-FW")


def test_package_import_leaves_the_harness_unloaded():
    """``import repro.core, repro.data`` (the library's cold start) does not
    load the benchmark harness; callers import it by name."""
    code = ("import sys, repro.core, repro.data; "
            "print('repro.core.experiment' in sys.modules)")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
