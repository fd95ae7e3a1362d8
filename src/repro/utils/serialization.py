"""Checkpoint (de)serialisation with integrity digests.

Checkpoints are nested dicts of plain Python values and NumPy arrays —
model ``state_dict`` copies, optimiser moments, bit-generator states, metric
histories.  They are written with the standard-library :mod:`pickle` (the
library has no third-party serialisation dependency) through an atomic
rename, so a crash mid-write never leaves a truncated checkpoint behind.

On top of the atomic write, every checkpoint carries a SHA-256 digest of its
pickled payload: :func:`save_checkpoint` wraps the payload bytes in a small
envelope ``{"format": "qugeo-checkpoint", "version": 1, "sha256": ...,
"payload": <bytes>}`` and :func:`load_checkpoint` re-hashes the payload on
read.  A flipped bit, a torn copy, or a truncated file therefore surfaces as
a typed :class:`CheckpointIntegrityError` instead of a garbage model, and
:func:`resolve_checkpoint` can fall back to the ``.bak`` rotation the
training engine keeps next to each checkpoint.  Envelope-free files written
by older releases still load (their pickled dict has no ``"format"`` key),
just without digest verification.

.. warning::
   As with any pickle-based format (``torch.load`` included), deserialising
   a file executes code embedded in it.  Only load checkpoint / pipeline
   files you trust — i.e. files you (or your own CI) wrote.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import BinaryIO, Callable, Dict, List, Optional, Tuple, Union

PathLike = Union[str, "os.PathLike[str]"]

#: Envelope marker distinguishing digest-carrying checkpoints from legacy
#: raw-pickle files.
CHECKPOINT_FORMAT = "qugeo-checkpoint"

#: Version of the digest envelope itself (not of the payload schema — the
#: training engine versions its payload separately).
CHECKPOINT_ENVELOPE_VERSION = 1

#: Suffix of the last-good backup rotated by the training engine's
#: checkpoint callback before each overwrite.
BACKUP_SUFFIX = ".bak"


class CheckpointIntegrityError(ValueError):
    """A checkpoint file is unreadable, truncated, or fails its digest."""


def atomic_replace(path: Path, write_fn: Callable[[BinaryIO], object]) -> None:
    """Write ``path`` through a sibling temp file and a rename, creating
    parent directories, so readers never see partial data.

    ``write_fn(handle)`` writes the bytes; if it or the rename fails, the
    temp file is removed and the error re-raises.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=str(path.parent),
                                    prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            write_fn(handle)
        os.replace(tmp_name, str(path))
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            # Best-effort cleanup: the original error re-raises below.
            pass
        raise


def save_checkpoint(path: PathLike, payload: Dict[str, object]) -> None:
    """Atomically write ``payload`` to ``path``, creating parent directories.

    The payload is pickled to bytes, digested with SHA-256, and stored inside
    the digest envelope described in the module docstring.
    """
    payload_bytes = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    envelope = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_ENVELOPE_VERSION,
        "sha256": hashlib.sha256(payload_bytes).hexdigest(),
        "payload": payload_bytes,
    }
    atomic_replace(Path(path), lambda handle: pickle.dump(
        envelope, handle, protocol=pickle.HIGHEST_PROTOCOL))


def load_checkpoint(path: PathLike) -> Dict[str, object]:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Verifies the SHA-256 digest of envelope-format files; raises
    :class:`CheckpointIntegrityError` on truncated pickles, digest
    mismatches, or files that do not hold a checkpoint dict.  Legacy files
    (raw pickled dicts, no envelope) load without verification.

    Only call on trusted files: unpickling executes embedded code.
    """
    try:
        with open(str(path), "rb") as handle:
            outer = pickle.load(handle)
    except (pickle.UnpicklingError, EOFError, AttributeError,
            MemoryError, ValueError) as exc:
        raise CheckpointIntegrityError(
            f"{path} is corrupt or truncated: {exc}") from exc
    if isinstance(outer, dict) and outer.get("format") == CHECKPOINT_FORMAT:
        payload_bytes = outer.get("payload")
        if not isinstance(payload_bytes, (bytes, bytearray)):
            raise CheckpointIntegrityError(f"{path} has no payload bytes")
        digest = hashlib.sha256(payload_bytes).hexdigest()
        if digest != outer.get("sha256"):
            raise CheckpointIntegrityError(
                f"{path} failed its integrity digest "
                f"(stored {outer.get('sha256')!r}, computed {digest!r})")
        try:
            payload = pickle.loads(bytes(payload_bytes))
        except (pickle.UnpicklingError, EOFError, AttributeError,
                MemoryError, ValueError) as exc:
            raise CheckpointIntegrityError(
                f"{path} payload failed to unpickle: {exc}") from exc
    else:
        payload = outer
    if not isinstance(payload, dict):
        raise CheckpointIntegrityError(
            f"{path} does not hold a checkpoint dict")
    return payload


def resolve_checkpoint(path: PathLike
                       ) -> Tuple[Optional[Dict[str, object]],
                                  Optional[str], List[str]]:
    """Load ``path``, falling back to its ``.bak`` rotation on corruption.

    Tries ``path`` then ``path + ".bak"``; returns ``(payload, loaded_path,
    problems)`` where ``problems`` lists a human-readable line per candidate
    that was missing or failed integrity.  ``payload`` is ``None`` when no
    candidate loads — the caller decides whether that means "start fresh"
    (the training engine's choice) or an error.
    """
    problems: List[str] = []
    for candidate in (str(path), str(path) + BACKUP_SUFFIX):
        if not os.path.exists(candidate):
            problems.append(f"{candidate}: missing")
            continue
        try:
            return load_checkpoint(candidate), candidate, problems
        except CheckpointIntegrityError as exc:
            problems.append(str(exc))
    return None, None, problems
