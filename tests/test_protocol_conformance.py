"""Static/runtime conformance of the stack's three structural seams.

The training engine, the data layer and the simulation layer meet at three
interfaces — the :class:`~repro.core.training.Model` protocol, the
:class:`~repro.core.training.DataSource` protocol and the
:class:`~repro.backends.base.SimulationBackend` ABC.  These tests pin every
shipped implementation to its interface with ``issubclass``/``isinstance``
(both protocols are ``runtime_checkable`` and method-only, so class-level
checks are valid), and the typed helper functions below double as *static*
conformance proofs: mypy checks the assignments without any test running.
"""

from __future__ import annotations

from typing import Type

import numpy as np
import pytest

from repro.backends import get_backend
from repro.backends.base import SimulationBackend
from repro.backends.einsum_batch import EinsumBatchBackend
from repro.backends.numpy_loop import NumpyLoopBackend
from repro.core.classical_models import ClassicalFWIModel
from repro.core.qubatch import QuBatchVQC
from repro.core.training import ArrayDataSource, DataSource, Model
from repro.core.vqc_model import QuGeoVQC
from repro.data.store import ShardLoader
from repro.robustness.perturbations import PerturbedView

MODEL_IMPLEMENTATIONS = (QuGeoVQC, QuBatchVQC, ClassicalFWIModel)
DATA_SOURCE_IMPLEMENTATIONS = (ArrayDataSource, ShardLoader, PerturbedView)
BACKEND_IMPLEMENTATIONS = (NumpyLoopBackend, EinsumBatchBackend)


# --------------------------------------------------------------------------- #
# typed helpers: mypy verifies these assignments statically
# --------------------------------------------------------------------------- #
def _accepts_model(model: Model) -> Model:
    return model


def _accepts_data_source(source: DataSource) -> DataSource:
    return source


def _accepts_backend(backend: SimulationBackend) -> SimulationBackend:
    return backend


def check_model_statically(model_cls: Type[Model]) -> Type[Model]:
    """A ``Type[Model]`` annotation only typechecks for conforming classes."""
    return model_cls


# --------------------------------------------------------------------------- #
# runtime checks
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("model_cls", MODEL_IMPLEMENTATIONS,
                         ids=lambda cls: cls.__name__)
def test_model_protocol_class_conformance(model_cls):
    assert issubclass(model_cls, Model)


@pytest.mark.parametrize("source_cls", DATA_SOURCE_IMPLEMENTATIONS,
                         ids=lambda cls: cls.__name__)
def test_data_source_protocol_class_conformance(source_cls):
    assert issubclass(source_cls, DataSource)


@pytest.mark.parametrize("backend_cls", BACKEND_IMPLEMENTATIONS,
                         ids=lambda cls: cls.__name__)
def test_backend_abc_conformance(backend_cls):
    assert issubclass(backend_cls, SimulationBackend)
    assert not getattr(backend_cls, "__abstractmethods__", None)


def test_model_instance_conformance():
    model = QuGeoVQC()
    assert isinstance(model, Model)
    assert model is _accepts_model(model)


def test_data_source_instance_conformance():
    source = ArrayDataSource(np.zeros((3, 4)), np.zeros((3, 2, 2)))
    assert isinstance(source, DataSource)
    assert len(source) == 3
    assert source is _accepts_data_source(source)


@pytest.mark.parametrize("backend", (
    pytest.param(NumpyLoopBackend(), id="numpy"),
    pytest.param(EinsumBatchBackend(), id="einsum")))
def test_registered_backends_are_simulation_backends(backend):
    """Both engines are ``SimulationBackend`` instances that
    :func:`~repro.backends.get_backend` passes through as they are."""
    assert isinstance(backend, SimulationBackend)
    assert get_backend(backend) is backend
    assert backend is _accepts_backend(backend)


def test_protocols_reject_non_conforming_types():
    class NotAModel:
        pass

    class HalfSource:
        def __len__(self):
            return 0

        def gather(self, indices):
            return np.zeros(0), np.zeros(0)
        # no fingerprint()

    assert not isinstance(NotAModel(), Model)
    assert not issubclass(HalfSource, DataSource)


def test_data_source_protocol_is_structural_not_nominal():
    """Conformance must not require inheriting from the protocol."""
    for cls in DATA_SOURCE_IMPLEMENTATIONS:
        assert DataSource not in cls.__mro__
    for cls in MODEL_IMPLEMENTATIONS:
        assert Model not in cls.__mro__
