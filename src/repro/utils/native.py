"""Build, cache and load the package's C sources with :mod:`ctypes`.

Two hot loops ship as plain C next to the modules that call them: the
propagator's time loop (``repro/seismic/leapfrog.c``) and the quantum
engine's gate kernels (``repro/backends/statevector.c``).  Neither uses
the Python C-API.  :func:`load` compiles a source with the system ``cc`` on
its first use and loads it; importing this module does neither.

The library is cached under ``~/.cache/qugeo``, named by the source's stem
and a sha256 of the source, the flags and ``cc --version``, and published
with :func:`~repro.utils.serialization.atomic_replace`, so concurrent
processes never load a partial file.  A library is loaded from there only
if the directory and the file are the current user's and nobody else can
write them; otherwise, or if that directory is unusable, the process
builds into a private temporary directory that it removes after loading.
If the compile or the load fails, one :class:`RuntimeWarning` per source
names the cause, and :func:`load` returns ``None`` so the caller runs its
oracle.

Each source compiles several SIMD copies of its hot loop and picks the
widest the CPU can run; its ``qugeo_isa`` entry point names that copy
(:func:`isa`), and :func:`load` counts it once in telemetry as
``native.<stem>.<copy>``.
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
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.telemetry import get_telemetry
from repro.utils.serialization import atomic_replace

_COMPILER = "cc"
#: Portable flags (no ``-march``: the cache key then names no host).
#: ``-ffp-contract=off`` rounds every multiply and add separately, as numpy
#: does, so no fused multiply-add changes a result between hosts.
_FLAGS = ("-O3", "-ffp-contract=off", "-std=c99", "-fPIC", "-shared")

#: ``(library or None, reason or None)`` per source, on first use.
_loaded: Dict[Path, Tuple[Optional[ctypes.CDLL], Optional[str]]] = {}
_load_lock = threading.Lock()

#: An entry point's ``(argtypes, restype)``.
Signature = Tuple[Sequence[object], object]


def _private(path: Path) -> bool:
    """Whether ``path`` is the current user's and nobody else can write it."""
    info = path.stat()
    # Without getuid (not POSIX) nothing counts as private.
    return (info.st_uid == getattr(os, "getuid", lambda: -1)()
            and not info.st_mode & 0o022)


def _open(source: Path, library: Path, span: str) -> ctypes.CDLL:
    """``library`` loaded, compiled from ``source`` first unless private."""
    if not (library.is_file() and _private(library)):
        with get_telemetry().span(span), \
                tempfile.TemporaryDirectory(prefix="qugeo-build-") as scratch:
            built = Path(scratch) / library.name
            result = subprocess.run(
                [_COMPILER, *_FLAGS, "-o", str(built), str(source)],
                capture_output=True, text=True)
            if result.returncode != 0:
                raise OSError(f"{_COMPILER} exited {result.returncode}: "
                              f"{result.stderr.strip()[:500]}")
            atomic_replace(library,
                           lambda handle: handle.write(built.read_bytes()))
    return ctypes.CDLL(str(library))


def _build(source: Path, span: str) -> ctypes.CDLL:
    """The library of ``source``, compiled on a cache miss."""
    digest = hashlib.sha256(source.read_bytes())
    digest.update(" ".join(_FLAGS).encode())
    digest.update(subprocess.run([_COMPILER, "--version"], check=True,
                                 capture_output=True).stdout)
    name = f"{source.stem}-{digest.hexdigest()[:16]}.so"
    home = os.path.expanduser("~")
    cache = Path(home) / ".cache" / "qugeo"
    try:
        if home != "~":  # "~" is left as is where no home is known
            cache.mkdir(mode=0o700, parents=True, exist_ok=True)
            if _private(cache):
                return _open(source, cache / name, span)
    except OSError:
        pass  # an unusable cache, a bad cached file or a full disk
    # Build privately.  The library stays mapped after its directory goes.
    with tempfile.TemporaryDirectory(
            prefix=f"qugeo-{source.stem}-") as private:
        return _open(source, Path(private) / name, span)


def load(source: Path, entries: Callable[[], Dict[str, Signature]],
         span: str, fallback: str) -> Optional[ctypes.CDLL]:
    """The library built from ``source``, or ``None`` if it is unavailable.

    ``entries()`` maps each entry point to its ``(argtypes, restype)``; it
    is called, and the signatures set, once when the library loads; it must
    include ``qugeo_isa``, whose answer the load counts in telemetry.  A
    compile runs inside the telemetry span ``span``.  The first failure
    warns once, naming the cause and ``fallback`` (what the caller runs
    instead); later calls return ``None`` without a warning.
    """
    with _load_lock:
        if source not in _loaded:
            try:
                library = _build(source, span)
                for name, (argtypes, restype) in entries().items():
                    entry = getattr(library, name)
                    entry.argtypes, entry.restype = argtypes, restype
                get_telemetry().counter(
                    f"native.{source.stem}.{isa(library)}").inc()
                _loaded[source] = (library, None)
            except (OSError, AttributeError,
                    subprocess.SubprocessError) as exc:
                reason = f"{type(exc).__name__}: {exc}"
                _loaded[source] = (None, reason)
                warnings.warn(f"the C library {source.name} is unavailable "
                              f"({reason}); {fallback}",
                              RuntimeWarning, stacklevel=4)
        return _loaded[source][0]


def isa(library: ctypes.CDLL) -> str:
    """The SIMD copy ``library`` runs: ``"generic"``, ``"avx2"`` or
    ``"avx512"``."""
    return library.qugeo_isa().decode()


def failure(source: Path) -> Optional[str]:
    """Why ``source`` did not load, or ``None`` if it loaded or was never
    asked for."""
    return _loaded.get(source, (None, None))[1]
