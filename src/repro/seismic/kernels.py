"""The propagator's fused C time loop: load and call.

``leapfrog.c`` (next to this module) runs the whole time loop of
:class:`~repro.seismic.acoustic2d.BatchedAcousticSimulator2D` in one call,
bit-identical to the oracle :class:`~repro.seismic.acoustic2d.AcousticSimulator2D`.
The first propagator call compiles and loads it through
:func:`repro.utils.native.load` (cached under ``~/.cache/qugeo``, loaded
only from a directory private to the user); importing this module does
neither.  If the compile or the load fails, one :class:`RuntimeWarning`
names the cause and the propagator runs the oracle, which gives the same
bits several times slower.
"""

from __future__ import annotations

import ctypes
from pathlib import Path
from types import SimpleNamespace
from typing import Optional, Tuple

import numpy as np

from repro.utils import native

_SOURCE = Path(__file__).with_name("leapfrog.c")


def _entry_points():
    """The loop's ``ctypes`` signature.  ctypes refuses an array of the
    wrong dtype or rank, or a strided one."""
    f64 = [np.ctypeslib.ndpointer(np.float64, ndim=n, flags="C_CONTIGUOUS")
           for n in range(5)]
    i64 = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS")
    return {"qugeo_leapfrog": (
        [f64[4], f64[3], f64[2], f64[1], f64[1], i64, f64[2], i64, f64[3],
         f64[4]] + [ctypes.c_int64] * 9, ctypes.c_int)}


def load_kernel():
    """The compiled loop, or ``None`` (warning once) if it is unavailable."""
    library = native.load(
        _SOURCE, _entry_points, span="propagator.compile",
        fallback="running the oracle AcousticSimulator2D instead, which "
                 "gives the same gathers several times slower")
    return None if library is None else library.qugeo_leapfrog


def resolve_kernel(spec=None) -> Tuple[SimpleNamespace, Optional[str]]:
    """``(kernel, fallback)``: the loop that runs, for the benchmark record.

    ``kernel.name`` is ``"c"`` with ``fallback`` ``None``, or ``"python"``
    (the oracle) with the reason the C loop is unavailable.  Nothing
    selects the loop, so ``spec`` must be ``None``.
    """
    if spec is not None:
        raise ValueError(f"the propagator loop is not selectable; got {spec!r}")
    if load_kernel() is None:
        return SimpleNamespace(name="python"), native.failure(_SOURCE)
    return SimpleNamespace(name="c"), None


def leapfrog(entry, fields, c2dt2, mask, cz, cx, src, amps, rec, gather,
             snaps, record_every: int, snap_stride: int) -> None:
    """Run ``entry`` (from :func:`load_kernel`) over ``fields`` in place.

    The arrays are shaped as ``leapfrog.c`` documents them.  Every size
    handed to C is read off them and every cell index is range-checked, so
    a malformed call raises :class:`ValueError` instead of reading out of
    bounds.
    """
    n_batch, _, nz, nx = fields.shape
    n_models, n_steps, n_rec = c2dt2.shape[0], amps.shape[1], rec.shape[0]
    if (record_every < 1 or fields.shape[1] != 3 or n_models < 1
            or n_batch % n_models or cz.shape != cx.shape
            or cz.shape[0] not in (3, 5, 9)
            or c2dt2.shape[1:] != mask.shape or mask.shape != (nz, nx)
            or src.shape != (n_batch,) or amps.shape[0] != n_batch
            or gather.shape != (n_batch, -(-n_steps // record_every), n_rec)
            or snaps.shape != (-(-n_steps // snap_stride) if snap_stride > 0
                               else 0, n_batch, nz, nx)
            or np.any((src < 0) | (src >= nz * nx))
            or np.any((rec < 0) | (rec >= nz * nx))):
        raise ValueError("inconsistent arrays for the C propagator loop")
    status = entry(fields, c2dt2, mask, cz, cx, src, amps, rec, gather, snaps,
                   n_batch, n_models, nz, nx, cz.shape[0], n_steps,
                   record_every, n_rec, snap_stride)
    if status == -2:
        raise MemoryError("C propagator loop could not allocate its "
                          "scratch rows")
    if status != 0:
        raise RuntimeError(f"C propagator loop returned {status}")
