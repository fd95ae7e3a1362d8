"""String-keyed registry of propagator time-loop kernels.

Mirrors :mod:`repro.backends` and :mod:`repro.seismic.propagators`: kernel
engines live in :data:`KERNELS`, a :class:`~repro.utils.registry.Registry`
of zero-argument factories returning a
:class:`~repro.seismic.kernels.base.PropagatorKernel`, and the batched
propagator resolves one with :func:`resolve_kernel`.  The ``numba`` factory
raises :class:`~repro.utils.registry.UnavailableError` when numba is
missing, so registration never imports heavy packages eagerly.

Resolution order for the default engine:

1. an explicit name (or ready kernel instance) passed by the caller — e.g.
   the ``kernel`` argument of
   :class:`~repro.seismic.acoustic2d.BatchedAcousticSimulator2D` or
   :attr:`repro.seismic.forward_modeling.ForwardModel.kernel`;
2. the ``QUGEO_SEISMIC_KERNEL`` environment variable;
3. ``"python"`` — the vectorised numpy loop, always available and
   bit-identical to the historical inline loop.

:func:`resolve_kernel` additionally falls back to ``"python"`` (reporting
why) when the requested kernel is unavailable or cannot serve the request
(e.g. wavefield snapshots from a fused kernel), so a missing optional
dependency degrades instead of failing mid-run.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from repro.seismic.kernels.base import KernelPlan, PMLState, PropagatorKernel
from repro.seismic.kernels.python_kernel import PythonKernel
from repro.utils import env
from repro.utils.registry import Registry, UnavailableError

KernelSpec = Union[None, str, PropagatorKernel]


def _numba_factory() -> PropagatorKernel:
    from repro.seismic.kernels import fused

    if not fused.HAVE_NUMBA:
        raise UnavailableError(
            "propagator kernel 'numba' is unavailable: numba is not "
            "installed")
    return fused.FusedLoopKernel(name="numba")


KERNELS: Registry[PropagatorKernel] = Registry(
    "propagator kernel", env.SEISMIC_KERNEL, "python", PropagatorKernel)
KERNELS.register("python", PythonKernel)
KERNELS.register("numba", _numba_factory)

get_kernel = KERNELS.get
default_kernel_name = KERNELS.default_name


def resolve_kernel(spec: KernelSpec = None, *, need_snapshots: bool = False
                   ) -> Tuple[PropagatorKernel, Optional[str]]:
    """Resolve ``spec``, degrading to ``"python"`` when it cannot serve.

    Returns ``(kernel, fallback_reason)``; ``fallback_reason`` is ``None``
    when the requested kernel was used, else a human-readable sentence the
    caller can log / count.  Unknown names still raise — only *unavailable*
    or *incapable* kernels degrade.
    """
    try:
        kernel = KERNELS.get(spec)
    except UnavailableError as exc:
        return KERNELS.get("python"), str(exc)
    if need_snapshots and not kernel.supports_snapshots:
        return (KERNELS.get("python"),
                f"kernel {kernel.name!r} does not record wavefield snapshots")
    return kernel, None


__all__ = [
    "KERNELS",
    "KernelPlan",
    "KernelSpec",
    "PMLState",
    "PropagatorKernel",
    "PythonKernel",
    "default_kernel_name",
    "get_kernel",
    "resolve_kernel",
]
