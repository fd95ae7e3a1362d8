"""The propagator's fused C time loop: load and call.

``leapfrog.c`` (next to this module) runs the whole time loop of
:class:`~repro.seismic.acoustic2d.BatchedAcousticSimulator2D` in one call,
over lane groups of the call's wavefields stored wavefield innermost,
bit-identical to the oracle :class:`~repro.seismic.acoustic2d.AcousticSimulator2D`.
Its row sweep is compiled in a generic, an AVX2 and an AVX-512 copy
(:data:`COPIES`); the loop runs the widest the CPU has, and
:func:`resolve_kernel` names it.
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
    """The library's ``ctypes`` signatures: the loop, the loop with a given
    SIMD copy of its row sweep and the most lanes a group holds on a grid
    (both for the tests), and the name of the copy the loop runs.  ctypes
    refuses an array of the wrong dtype or rank, or a strided one."""
    f64 = [np.ctypeslib.ndpointer(np.float64, ndim=n, flags="C_CONTIGUOUS")
           for n in range(5)]
    i64 = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS")
    loop = ([f64[4], f64[3], f64[2], f64[1], f64[1], i64, f64[2], i64,
             f64[3], f64[4]] + [ctypes.c_int64] * 9)
    return {"qugeo_leapfrog": (loop, ctypes.c_int),
            "qugeo_leapfrog_copy": ([ctypes.c_int64] + loop, ctypes.c_int),
            "qugeo_group_lanes": ([ctypes.c_int64] * 2, ctypes.c_int64),
            "qugeo_isa": ([], ctypes.c_char_p)}


#: The SIMD copies of the row sweep, numbered as ``leapfrog.c`` numbers them.
COPIES = ("generic", "avx2", "avx512")


def load_library():
    """The compiled library, or ``None`` (warning once) if it is
    unavailable."""
    return native.load(
        _SOURCE, _entry_points, span="propagator.compile",
        fallback="running the oracle AcousticSimulator2D instead, which "
                 "gives the same gathers several times slower")


def load_kernel():
    """The compiled loop, or ``None`` (warning once) if it is unavailable."""
    library = load_library()
    return None if library is None else library.qugeo_leapfrog


def resolve_kernel(spec=None) -> Tuple[SimpleNamespace, Optional[str]]:
    """``(kernel, fallback)``: the loop that runs, for the benchmark record.

    ``kernel.name`` is ``"c"`` with ``fallback`` ``None``, or ``"python"``
    (the oracle) with the reason the C loop is unavailable.  ``kernel.isa``
    names the SIMD copy of the row sweep the C loop runs, one of
    :data:`COPIES`, or is ``None`` for the oracle.  Nothing selects the
    loop, so ``spec`` must be ``None``.
    """
    if spec is not None:
        raise ValueError(f"the propagator loop is not selectable; got {spec!r}")
    library = load_library()
    if library is None:
        return (SimpleNamespace(name="python", isa=None),
                native.failure(_SOURCE))
    return SimpleNamespace(name="c", isa=native.isa(library)), None


def leapfrog(entry, fields, c2dt2, mask, cz, cx, src, amps, rec, gather,
             snaps, record_every: int, snap_stride: int) -> None:
    """Run ``entry`` (from :func:`load_kernel`) over ``fields`` in place.

    The arrays are shaped as ``leapfrog.c`` documents them; the loop runs
    the wavefields in lane groups it forms itself.  Every size handed to C
    is read off them and every cell index is range-checked, so a malformed
    call raises :class:`ValueError` instead of reading out of bounds.
    """
    n_batch, _, nz, nx = fields.shape
    n_models, n_steps, n_rec = c2dt2.shape[0], amps.shape[1], rec.shape[0]
    if (record_every < 1 or fields.shape[1] != 3 or n_models < 1
            or n_batch < 1 or n_batch % n_models or cz.shape != cx.shape
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
                          "lane buffers")
    if status != 0:
        raise RuntimeError(f"C propagator loop returned {status}")
