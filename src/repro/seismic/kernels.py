"""The propagator's fused C time loop: build, cache, load and call.

``leapfrog.c`` (next to this module) runs the whole time loop of
:class:`~repro.seismic.acoustic2d.BatchedAcousticSimulator2D` in one call,
bit-identical to the oracle :class:`~repro.seismic.acoustic2d.AcousticSimulator2D`.
The first propagator call compiles it with the system ``cc`` and loads it
with :mod:`ctypes`; importing this module does neither.  The library is
cached under ``~/.cache/qugeo``, named by a sha256 of the source, the flags
and ``cc --version``, and published with
:func:`~repro.utils.serialization.atomic_replace`, so concurrent processes
never load a partial file.  A library is loaded from there only if the
directory and the file are the current user's and nobody else can write
them; otherwise, or if that directory is unusable, the process builds into
a private temporary directory that it removes after loading.  If the
compile or the load fails, one
:class:`RuntimeWarning` names the cause and the propagator runs the oracle,
which gives the same bits several times slower.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
import warnings
from pathlib import Path
from types import SimpleNamespace
from typing import Optional, Tuple

import numpy as np

from repro.telemetry import get_telemetry
from repro.utils.serialization import atomic_replace

_SOURCE = Path(__file__).with_name("leapfrog.c")
_COMPILER = "cc"
#: Portable flags (no ``-march``: the bits do not depend on it, and the
#: cache key then names no host).  ``-ffp-contract=off`` rounds every
#: multiply and add separately, as numpy does in the oracle.
_FLAGS = ("-O3", "-ffp-contract=off", "-std=c99", "-fPIC", "-shared")

# ctypes refuses an array of the wrong dtype or rank, or a strided one.
_F64 = [np.ctypeslib.ndpointer(np.float64, ndim=n, flags="C_CONTIGUOUS")
        for n in range(5)]
_I64 = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS")
_ARGTYPES = ([_F64[4], _F64[3], _F64[2], _F64[1], _F64[1], _I64, _F64[2],
              _I64, _F64[3], _F64[4]] + [ctypes.c_int64] * 9)

#: ``entry`` (the loaded function or ``None``) and ``reason``, on first use.
_loaded: dict = {}
_load_lock = threading.Lock()


def _private(path: Path) -> bool:
    """Whether ``path`` is the current user's and nobody else can write it."""
    info = path.stat()
    # Without getuid (not POSIX) nothing counts as private.
    return (info.st_uid == getattr(os, "getuid", lambda: -1)()
            and not info.st_mode & 0o022)


def _open(library: Path):
    """The entry point of ``library``, compiled first unless it is private."""
    if not (library.is_file() and _private(library)):
        with get_telemetry().span("propagator.compile"), \
                tempfile.TemporaryDirectory(prefix="qugeo-build-") as scratch:
            built = Path(scratch) / library.name
            result = subprocess.run(
                [_COMPILER, *_FLAGS, "-o", str(built), str(_SOURCE)],
                capture_output=True, text=True)
            if result.returncode != 0:
                raise OSError(f"{_COMPILER} exited {result.returncode}: "
                              f"{result.stderr.strip()[:500]}")
            atomic_replace(library,
                           lambda handle: handle.write(built.read_bytes()))
    entry = ctypes.CDLL(str(library)).qugeo_leapfrog
    entry.argtypes, entry.restype = _ARGTYPES, ctypes.c_int
    return entry


def _load():
    """The ``qugeo_leapfrog`` entry point, compiled on a cache miss."""
    digest = hashlib.sha256(_SOURCE.read_bytes())
    digest.update(" ".join(_FLAGS).encode())
    digest.update(subprocess.run([_COMPILER, "--version"], check=True,
                                 capture_output=True).stdout)
    name = f"leapfrog-{digest.hexdigest()[:16]}.so"
    home = os.path.expanduser("~")
    cache = Path(home) / ".cache" / "qugeo"
    try:
        if home != "~":  # "~" is left as is where no home is known
            cache.mkdir(mode=0o700, parents=True, exist_ok=True)
            if _private(cache):
                return _open(cache / name)
    except OSError:
        pass  # an unusable cache, a bad cached file or a full disk
    # Build privately.  The library stays mapped after its directory goes.
    with tempfile.TemporaryDirectory(prefix="qugeo-leapfrog-") as private:
        return _open(Path(private) / name)


def load_kernel():
    """The compiled loop, or ``None`` (warning once) if it is unavailable."""
    with _load_lock:
        if not _loaded:
            try:
                _loaded.update(entry=_load(), reason=None)
            except (OSError, subprocess.SubprocessError) as exc:
                _loaded.update(entry=None,
                               reason=f"{type(exc).__name__}: {exc}")
                warnings.warn(
                    f"the C propagator loop is unavailable "
                    f"({_loaded['reason']}); running the oracle "
                    "AcousticSimulator2D instead, which gives the same "
                    "gathers several times slower",
                    RuntimeWarning, stacklevel=3)
        return _loaded["entry"]


def resolve_kernel(spec=None) -> Tuple[SimpleNamespace, Optional[str]]:
    """``(kernel, fallback)``: the loop that runs, for the benchmark record.

    ``kernel.name`` is ``"c"`` with ``fallback`` ``None``, or ``"python"``
    (the oracle) with the reason the C loop is unavailable.  Nothing
    selects the loop, so ``spec`` must be ``None``.
    """
    if spec is not None:
        raise ValueError(f"the propagator loop is not selectable; got {spec!r}")
    if load_kernel() is None:
        return SimpleNamespace(name="python"), _loaded["reason"]
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
    if status != 0:
        raise RuntimeError(f"C propagator loop returned {status}")
