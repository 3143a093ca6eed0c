"""Crash-consistent checkpoint store for workflow resume.

The paper's workloads are exactly the kind that die at hour N-1:
multi-hour CNN training and multi-node dislib sweeps, where COMPSs-style
recovery means restarting from *persisted task results*, not just
retrying an in-flight attempt.  This module provides that layer:

* :func:`fingerprint` — deterministic content hash of task arguments
  (NumPy arrays, primitives, containers, picklable objects).
* :func:`function_identity` — stable identity of a registered task
  function (qualified name + source hash), so editing a task body
  invalidates its old checkpoints.
* :class:`CheckpointStore` — a directory of self-describing entry
  files, each written atomically (temp file + fsync + rename) with a
  SHA-256 payload checksum; the directory is its own index.

The runtime keys entries by a *task signature*: function identity +
argument fingerprint + call lineage (the occurrence index among calls
with identical identity/arguments, so repeated invocations stay
distinct).  Future-valued arguments contribute the *signature of their
producing task* rather than their value — which is what lets a resumed
run skip a deep suffix of the DAG without materialising any upstream
data.

Corrupt entries (torn writes survive only as checksum mismatches thanks
to the atomic protocol; bit rot and injected corruption show up the
same way) are **logged and recomputed**, never raised to the workflow.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import logging
import os
import pickle
import time
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.runtime.atomic_write import atomic_write
from repro.runtime.exceptions import CheckpointError

logger = logging.getLogger("repro.runtime.checkpoint")

#: Entry-file magic: format name + version, newline-terminated.
MAGIC = b"REPROCKPT1\n"


class UnfingerprintableError(TypeError):
    """The object cannot be deterministically fingerprinted.

    The engine treats this as "not checkpointable": the task simply
    executes every time instead of failing the workflow.
    """


# ----------------------------------------------------------------------
# fingerprinting
# ----------------------------------------------------------------------
def fingerprint(obj: Any) -> str:
    """Deterministic SHA-256 hex digest of *obj*'s content.

    Covers the argument types our workflows pass between tasks: NumPy
    arrays (dtype + shape + raw bytes), primitives, lists/tuples/dicts
    (recursively), and — as a fallback — anything picklable.  Raises
    :class:`UnfingerprintableError` for the rest.
    """
    h = hashlib.sha256()
    _update(h, obj, resolve=None)
    return h.hexdigest()


def _update(h, obj: Any, resolve: Callable[[Any], tuple] | None) -> None:
    import numpy as np

    if obj is None or isinstance(obj, (bool, int)):
        h.update(f"p:{obj!r};".encode())
    elif isinstance(obj, float):
        h.update(b"f:")
        h.update(np.float64(obj).tobytes())
    elif isinstance(obj, str):
        raw = obj.encode()
        h.update(f"s:{len(raw)}:".encode())
        h.update(raw)
    elif isinstance(obj, (bytes, bytearray)):
        h.update(f"b:{len(obj)}:".encode())
        h.update(bytes(obj))
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        h.update(f"a:{arr.dtype.str}:{arr.shape}:".encode())
        h.update(arr.tobytes())
    elif isinstance(obj, np.generic):
        h.update(f"g:{obj.dtype.str}:".encode())
        h.update(obj.tobytes())
    elif resolve is not None and _is_future(obj):
        h.update(b"F:")
        _update(h, resolve(obj), resolve)
    elif isinstance(obj, (list, tuple)):
        h.update(f"l:{type(obj).__name__}:{len(obj)}:".encode())
        for item in obj:
            _update(h, item, resolve)
    elif isinstance(obj, dict):
        entries = []
        for key, value in obj.items():
            kh = hashlib.sha256()
            _update(kh, key, resolve)
            entries.append((kh.hexdigest(), value))
        entries.sort(key=lambda kv: kv[0])
        h.update(f"d:{len(entries)}:".encode())
        for key_digest, value in entries:
            h.update(key_digest.encode())
            _update(h, value, resolve)
    else:
        try:
            payload = pickle.dumps(obj, protocol=4)
        except Exception as exc:
            raise UnfingerprintableError(
                f"cannot fingerprint {type(obj).__name__} argument"
            ) from exc
        h.update(f"o:{len(payload)}:".encode())
        h.update(payload)


def _is_future(obj: Any) -> bool:
    from repro.runtime.future import Future

    return isinstance(obj, Future)


def function_identity(func: Callable, name: str | None = None) -> str:
    """Stable identity of a task function across processes.

    Qualified name plus a hash of the source text (falling back to the
    compiled bytecode for sources that cannot be read), so renaming *or
    editing* a task invalidates checkpoints keyed on the old behaviour.
    """
    qual = f"{getattr(func, '__module__', '?')}.{getattr(func, '__qualname__', repr(func))}"
    try:
        body = inspect.getsource(func)
    except (OSError, TypeError):
        code = getattr(func, "__code__", None)
        body = code.co_code.hex() if code is not None else repr(func)
    h = hashlib.sha256()
    h.update(f"{name or ''}|{qual}|".encode())
    h.update(body.encode())
    return h.hexdigest()


def task_signature(
    identity: str,
    args: tuple,
    kwargs: dict,
    resolve: Callable[[Any], tuple] | None = None,
) -> str:
    """Base signature of one task invocation (before call lineage).

    *resolve* maps a :class:`~repro.runtime.future.Future` argument to a
    stable key — the engine passes ``(producer_signature, index)`` —
    and may raise :class:`UnfingerprintableError` when the producer has
    no signature.
    """
    h = hashlib.sha256()
    h.update(identity.encode())
    _update(h, args, resolve)
    _update(h, kwargs, resolve)
    return h.hexdigest()


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class CheckpointEntry:
    """Metadata of one persisted entry (the payload stays on disk)."""

    key: str
    task: str
    path: str
    nbytes: int
    sha256: str
    created_at: float


@dataclasses.dataclass
class VerifyReport:
    """Outcome of :meth:`CheckpointStore.verify`."""

    ok: list[str] = dataclasses.field(default_factory=list)
    corrupt: list[str] = dataclasses.field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.corrupt


class CheckpointStore:
    """A directory of checkpoint entries with crash-consistent writes.

    Layout::

        <root>/entries/<id>.ckpt      MAGIC + JSON header line + payload

    The directory is its own index: each entry's header carries its key,
    task, checksum, size and creation time, so listing, stats, verify and
    prune read the headers and there is no second file to keep in step
    (a ``manifest.json`` left by an older store is ignored).  Every entry
    file is written with :func:`~repro.runtime.atomic_write.atomic_write`,
    so a reader never observes a torn file; the payload checksum in the
    header catches everything else (bit rot, injected corruption).
    ``get`` verifies the checksum on every read and returns ``None`` for
    corrupt or missing entries — the caller recomputes, it never crashes.

    Keys are arbitrary strings: the engine uses task signatures, the
    higher layers (epoch/round/grid checkpoints) use human-readable
    tags.  Values are tuples of Python objects, pickled.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.entries_dir = self.root / "entries"
        if self.root.exists() and not self.root.is_dir():
            raise CheckpointError(f"checkpoint path {self.root} is not a directory")
        self.entries_dir.mkdir(parents=True, exist_ok=True)

    # -- paths ----------------------------------------------------------
    def _entry_id(self, key: str) -> str:
        return hashlib.sha256(key.encode()).hexdigest()[:40]

    def _entry_path(self, key: str) -> Path:
        return self.entries_dir / f"{self._entry_id(key)}.ckpt"

    # -- entry file format ---------------------------------------------
    @staticmethod
    def _read_header(path: Path) -> dict | None:
        try:
            with open(path, "rb") as fh:
                if fh.read(len(MAGIC)) != MAGIC:
                    return None
                return json.loads(fh.readline().decode())
        except (OSError, ValueError):
            return None

    def _read_entry(self, path: Path) -> tuple[dict, bytes] | None:
        """(header, payload) or None when the file is unreadable."""
        try:
            with open(path, "rb") as fh:
                if fh.read(len(MAGIC)) != MAGIC:
                    return None
                header = json.loads(fh.readline().decode())
                payload = fh.read()
            return header, payload
        except (OSError, ValueError):
            return None

    def _intact(self, path: Path) -> tuple[dict | None, bool]:
        """(header or None, whether the payload matches its checksum)."""
        parsed = self._read_entry(path)
        if parsed is None:
            return None, False
        header, payload = parsed
        return header, hashlib.sha256(payload).hexdigest() == header.get("sha256")

    def _headers(self) -> list[tuple[Path, dict]]:
        """Every entry file whose header reads, with that header."""
        rows = []
        for path in sorted(self.entries_dir.glob("*.ckpt")):
            header = self._read_header(path)
            if header is not None:
                rows.append((path, header))
        return rows

    # -- public API -----------------------------------------------------
    def put(self, key: str, task: str, values: tuple) -> CheckpointEntry:
        """Persist *values* under *key*, atomically; returns the entry.

        An existing entry for the key is replaced (epoch/round
        checkpoints overwrite in place; task signatures never collide
        within a run thanks to call lineage).
        """
        payload = pickle.dumps(tuple(values), protocol=4)
        header = {
            "key": key,
            "task": task,
            "sha256": hashlib.sha256(payload).hexdigest(),
            "nbytes": len(payload),
            "created_at": time.time(),
        }
        path = self._entry_path(key)
        blob = MAGIC + json.dumps(header).encode() + b"\n" + payload
        atomic_write(path, blob)
        return CheckpointEntry(
            key=key,
            task=task,
            path=str(path),
            nbytes=header["nbytes"],
            sha256=header["sha256"],
            created_at=header["created_at"],
        )

    def get(self, key: str, expect: int | None = None) -> tuple | None:
        """Verified payload for *key*, or ``None``.

        ``None`` means "recompute": the entry is absent, its checksum
        does not match its payload, its stored key differs (hash-prefix
        collision), or — with *expect* — its arity is wrong.  Corrupt
        entries are logged and deleted, so no later listing or read
        sees them.
        """
        path = self._entry_path(key)
        parsed = self._read_entry(path)
        if parsed is None:
            if path.exists():
                self._discard_corrupt(path, "unreadable entry")
            return None
        header, payload = parsed
        if header.get("key") != key:
            logger.warning("checkpoint key collision at %s; recomputing", path.name)
            return None
        if hashlib.sha256(payload).hexdigest() != header.get("sha256"):
            self._discard_corrupt(path, f"checksum mismatch for task {header.get('task')!r}")
            return None
        try:
            values = pickle.loads(payload)
        except Exception:
            self._discard_corrupt(path, "undecodable payload")
            return None
        if not isinstance(values, tuple) or (expect is not None and len(values) != expect):
            self._discard_corrupt(path, "unexpected payload shape")
            return None
        return values

    def contains(self, key: str) -> bool:
        return self._entry_path(key).exists()

    def _discard_corrupt(self, path: Path, reason: str) -> None:
        logger.warning("corrupt checkpoint entry %s (%s): recomputing", path.name, reason)
        try:
            path.unlink()
        except OSError:
            pass

    # -- inspection / maintenance --------------------------------------
    def entries(self) -> Iterator[CheckpointEntry]:
        """The entry headers on disk, oldest first."""
        rows = sorted(self._headers(), key=lambda row: row[1].get("created_at", 0.0))
        for path, header in rows:
            yield CheckpointEntry(
                key=header.get("key", ""),
                task=header.get("task", "?"),
                path=str(path),
                nbytes=int(header.get("nbytes", 0)),
                sha256=header.get("sha256", ""),
                created_at=float(header.get("created_at", 0.0)),
            )

    def stats(self) -> dict:
        headers = [header for _, header in self._headers()]
        by_task: dict[str, int] = {}
        for h in headers:
            by_task[h.get("task", "?")] = by_task.get(h.get("task", "?"), 0) + 1
        return {
            "root": str(self.root),
            "n_entries": len(headers),
            "total_bytes": sum(int(h.get("nbytes", 0)) for h in headers),
            "by_task": by_task,
        }

    def verify(self) -> VerifyReport:
        """Check every entry file against its checksum."""
        report = VerifyReport()
        for path in sorted(self.entries_dir.glob("*.ckpt")):
            _, ok = self._intact(path)
            (report.ok if ok else report.corrupt).append(path.name)
        return report

    def prune(
        self,
        task: str | None = None,
        corrupt: bool = False,
        older_than: float | None = None,
        everything: bool = False,
    ) -> list[str]:
        """Delete matching entries; returns the removed file names.

        ``corrupt=True`` removes checksum-failing and unreadable files;
        ``task`` removes entries of one task/tag; ``older_than`` removes
        entries created more than that many seconds ago; ``everything``
        empties the store.
        """
        removed: list[str] = []
        cutoff = None if older_than is None else time.time() - older_than
        for path in sorted(self.entries_dir.glob("*.ckpt")):
            header, ok = self._intact(path)
            drop = everything or (corrupt and not ok)
            if header is not None:
                if task is not None and header.get("task") == task:
                    drop = True
                if cutoff is not None and float(header.get("created_at", 0.0)) < cutoff:
                    drop = True
            if drop:
                try:
                    path.unlink()
                    removed.append(path.name)
                except OSError:
                    pass
        return removed

    def clear(self) -> None:
        self.prune(everything=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CheckpointStore {self.root} entries={self.stats()['n_entries']}>"


def as_store(store: "CheckpointStore | str | os.PathLike | None") -> CheckpointStore | None:
    """Coerce a user-facing ``checkpoint_dir`` argument (path or store
    instance) into a :class:`CheckpointStore`."""
    if store is None or isinstance(store, CheckpointStore):
        return store
    return CheckpointStore(store)
