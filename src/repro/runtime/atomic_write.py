"""Crash-consistent file writes.

Every artefact the runtime persists — checkpoint entries, traces,
provenance records, DOT graphs, Chrome traces — goes through
:func:`atomic_write`: the data is written to a temporary file in the
*same directory*, flushed and fsynced, then atomically renamed over the
destination (and the directory entry fsynced).  A reader therefore
always sees either the previous complete file or the new complete file,
never a partially-written one — the property the checkpoint store's
recovery guarantees are built on.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def atomic_write(path: str | os.PathLike, data: bytes | str, encoding: str = "utf-8") -> None:
    """Atomically replace *path* with *data* (temp file + fsync + rename).

    ``str`` data is encoded with *encoding*.  The temporary file lives in
    the destination directory so the final :func:`os.replace` never
    crosses a filesystem boundary (which would break atomicity).
    """
    if isinstance(data, str):
        data = data.encode(encoding)
    path = Path(path)
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    _fsync_dir(path.parent)


def _fsync_dir(directory: Path) -> None:
    """Flush the directory entry so the rename itself is durable.

    Best effort: some filesystems (and all of Windows) refuse O_RDONLY
    directory handles; losing the *rename* durability there still never
    exposes a torn file, only possibly the old complete one.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform dependent
        pass
    finally:
        os.close(fd)
