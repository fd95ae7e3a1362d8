"""String-keyed registry of acoustic propagator engines.

The seismic side mirrors the :mod:`repro.backends` subsystem: engines live
in :data:`PROPAGATORS`, a :class:`~repro.utils.registry.Registry`, and
callers resolve them with :func:`get_propagator`.  What a name resolves to
is a *propagator factory*: a callable ``factory(velocity, config) ->
simulator`` returning an object with the ``simulate_shots`` interface of
:class:`~repro.seismic.acoustic2d.AcousticSimulator2D`.  Simulators are
bound to a velocity model, so the registry caches the factory (the class),
never a simulator; a registered entry is a zero-argument callable returning
that class, e.g. ``PROPAGATORS.register("my-gpu", lambda: MyGpuPropagator)``.

Resolution order for the default engine:

1. an explicit name (or ready factory) passed by the caller — e.g. from
   :attr:`repro.seismic.forward_modeling.ForwardModel.propagator`;
2. the ``QUGEO_PROPAGATOR`` environment variable;
3. ``"batched"``: it matches the ``"scalar"`` reference to machine
   precision while advancing every shot in one time loop.
"""

from __future__ import annotations

import collections.abc
from typing import Callable, Union

from repro.seismic.acoustic2d import (
    AcousticSimulator2D,
    BatchedAcousticSimulator2D,
)
from repro.utils import env
from repro.utils.registry import Registry

PropagatorFactory = Callable[..., object]
PropagatorSpec = Union[None, str, PropagatorFactory]

PROPAGATORS: Registry[PropagatorFactory] = Registry(
    "acoustic propagator", env.PROPAGATOR, "batched",
    collections.abc.Callable)
PROPAGATORS.register("scalar", lambda: AcousticSimulator2D)
PROPAGATORS.register("batched", lambda: BatchedAcousticSimulator2D)

get_propagator = PROPAGATORS.get
default_propagator_name = PROPAGATORS.default_name
