"""Shared-memory object store — the runtime's data plane.

Without it the process backend loses to threads because every NumPy
argument and result crosses a pickle pipe (``backends.store_off_wall_s``
on the ``blocks_procs`` workload of ``bench/``).  This module removes
that copy: a plasma-style object store keeps immutable NumPy buffers in
POSIX shared-memory segments, keyed by small picklable
:class:`ObjectRef` handles.  A ref crosses the pipe in
~100 bytes; the worker maps the segment once and reads the array
zero-copy.  Results travel the same way in reverse — the worker writes
them into fresh segments and the coordinator *adopts* them by name, so
a chain of tasks moves refs, never buffers, and a block is mapped only
by the processes that read it.

Components
----------
:class:`ObjectRef`
    Immutable, picklable handle: object id, shape/dtype/nbytes, and the
    shared-memory segment holding the bytes.
:class:`ObjectStore`
    The coordinator-side store: a refcounted map of shared-memory
    segments whose objects never move.  Put-once/get-many semantics
    with identity deduplication, refcounting with deterministic
    release, pinning for in-flight transfers, and crash-safe cleanup:
    every segment carries a per-store name prefix, and ``shutdown()``
    unlinks tracked segments *and* sweeps ``/dev/shm`` for orphans with
    the same prefix (left behind by a coordinator that died before
    cleanup).  Live data stays resident: there is no budget and no
    second tier (DESIGN.md §15).
:class:`WorkerStore`
    The worker-process side: attaches coordinator segments into a
    bounded LRU cache (a cache hit maps nothing), hands task bodies
    read-only zero-copy views, and freezes large results into new
    segments for the coordinator to adopt.  The pool's last-in,
    first-out pick is what makes a chain of tasks hit it: the next link
    lands on the worker that froze its input (DESIGN.md §25).

Mutability contract
-------------------
Stored buffers are immutable (COMPSs ``IN`` semantics): views handed
out by ``get``/``deref`` are read-only.  A task that mutates an input
array in place must declare it ``INOUT`` — which keeps it on the
inline path, outside the store.
"""

from __future__ import annotations

import _posixshmem  # shm_open / shm_unlink, as multiprocessing.shared_memory calls them
import dataclasses
import mmap
import os
import threading
import uuid
import weakref
from pathlib import Path
from typing import Any

import numpy as np

__all__ = ["ObjectRef", "ObjectStore", "WorkerStore", "StoreError", "sweep_prefix"]

#: Arrays below this many bytes travel inline (pickled) — a
#: shared-memory round trip costs more than copying a small buffer.
#: Read at every dispatch (the coordinator ships it to the worker with
#: the call), so patching this attribute reaches both sides.
THRESHOLD_BYTES = 64 * 1024

#: Bound on the segments one worker keeps mapped between tasks.
WORKER_CACHE_BYTES = 256 * 1024 * 1024


class StoreError(RuntimeError):
    """Raised for invalid store operations (unknown/released object,
    unstorable value, use after shutdown)."""


@dataclasses.dataclass(frozen=True)
class ObjectRef:
    """Handle of one immutable array in an :class:`ObjectStore`.

    Refs are small and picklable — they are what crosses task
    submission, futures and worker pipes in place of the buffer.
    ``segment`` names the shared-memory segment holding the bytes — the
    object's only location, for as long as it lives.
    """

    object_id: str
    shape: tuple
    dtype: str
    nbytes: int
    segment: str | None = None

    def __hash__(self) -> int:
        return hash(self.object_id)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ObjectRef) and other.object_id == self.object_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ObjectRef {self.object_id} {self.dtype}{list(self.shape)} {self.nbytes}B>"


def is_ref(obj: Any) -> bool:
    """True if *obj* is an :class:`ObjectRef`."""
    return isinstance(obj, ObjectRef)


def scan_refs(obj: Any) -> list[ObjectRef]:
    """Collect refs reachable from *obj* (same container conventions as
    :func:`repro.runtime.future.scan_futures`: lists, tuples, dict
    values)."""
    found: list[ObjectRef] = []
    _scan(obj, found)
    return found


def _scan(obj: Any, out: list[ObjectRef]) -> None:
    if isinstance(obj, ObjectRef):
        out.append(obj)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _scan(item, out)
    elif isinstance(obj, dict):
        for item in obj.values():
            _scan(item, out)


def _map_tree(obj: Any, fn) -> Any:
    """Rebuild *obj* with ``fn`` applied to every :class:`ObjectRef`
    (container conventions of ``resolve_futures``)."""
    if isinstance(obj, ObjectRef):
        return fn(obj)
    if isinstance(obj, list):
        return [_map_tree(v, fn) for v in obj]
    if isinstance(obj, tuple):
        return tuple(_map_tree(v, fn) for v in obj)
    if isinstance(obj, dict):
        return {k: _map_tree(v, fn) for k, v in obj.items()}
    return obj


def _sweep_shm(prefix: str) -> int:
    """Unlink every ``/dev/shm`` segment whose name starts with
    *prefix*; returns the number removed."""
    shm_root = Path("/dev/shm")
    if not shm_root.is_dir():  # non-Linux: nothing to sweep
        return 0
    swept = 0
    for path in shm_root.glob(f"{prefix}*"):
        try:
            path.unlink()
            swept += 1
        except OSError:
            pass
    return swept


def sweep_prefix(prefix: str) -> int:
    """Sweep the leftover ``/dev/shm`` segments of a *dead* store
    identified by its segment *prefix*.

    This is the crash-recovery entry point used by long-running
    services on cold start: a restarted coordinator knows the prefixes
    of its previous incarnations (it persisted them) and sweeps exactly
    those.  The scope is strictly the prefix — two stores sharing
    ``/dev/shm`` can never sweep each other's live segments, because
    every prefix is unique per store instance.

    Returns the number of segments removed.  Never call this with the
    prefix of a store that is still alive.
    """
    if not prefix:
        raise ValueError("sweep_prefix requires a non-empty prefix")
    return _sweep_shm(prefix)


class _Segment:
    """One POSIX shared-memory segment: the file ``/dev/shm/<name>``.

    The store owns segment lifetimes itself (unlink on release, prefix
    sweep at shutdown), so segments are opened with ``shm_open``
    directly and the ``multiprocessing`` resource tracker — a register
    and an unregister message per handle, and a second unlink at exit —
    never hears of them.  A handle is a name and a size until something
    reads it: :meth:`map` opens and maps on first use, read-only, so the
    immutability contract is enforced by the MMU.

    There is no ``close``.  ``np.ndarray(buffer=...)`` keeps the mmap
    alive through ``.base`` but holds no buffer export, so closing would
    unmap under a live view and the next read would segfault.  Dropping
    the handle drops one reference; the mapping goes when the last view
    does."""

    __slots__ = ("name", "size", "_map")

    def __init__(self, name: str, nbytes: int):
        self.name = name
        self.size = max(1, nbytes)  # a zero-length file cannot be mapped
        self._map: mmap.mmap | None = None

    @classmethod
    def create(cls, name: str, data: Any) -> "_Segment":
        """Create segment *name* filled with *data* (bytes or an
        ndarray) by writing through the descriptor: the kernel
        allocates the pages in one call instead of one fault per page,
        and nothing is mapped until someone reads."""
        if isinstance(data, np.ndarray):
            data = np.ascontiguousarray(data).reshape(-1).view(np.uint8)
        rest = memoryview(data)
        seg = cls(name, rest.nbytes)
        fd = _posixshmem.shm_open(f"/{name}", os.O_CREAT | os.O_EXCL | os.O_RDWR, mode=0o600)
        try:
            if not rest.nbytes:
                os.ftruncate(fd, seg.size)
            while rest.nbytes:
                rest = rest[os.write(fd, rest) :]
        except BaseException:
            _posixshmem.shm_unlink(f"/{name}")
            raise
        finally:
            os.close(fd)
        return seg

    def map(self) -> mmap.mmap:
        if self._map is None:
            fd = _posixshmem.shm_open(f"/{self.name}", os.O_RDONLY, mode=0)
            try:
                self._map = mmap.mmap(fd, self.size, access=mmap.ACCESS_READ)
            finally:
                os.close(fd)
        return self._map

    def view(self, shape: tuple, dtype: str) -> np.ndarray:
        """Read-only zero-copy array over the segment's bytes."""
        return np.ndarray(shape, dtype=np.dtype(dtype), buffer=self.map())

    def unlink(self) -> None:
        """Remove the name; live mappings keep their pages."""
        try:
            _posixshmem.shm_unlink(f"/{self.name}")
        except FileNotFoundError:
            pass


class _Entry:
    """Coordinator-side record of one stored object."""

    __slots__ = ("object_id", "shape", "dtype", "nbytes", "seg", "refcount", "pins", "dedup_key")

    def __init__(self, object_id: str, shape: tuple, dtype: str, nbytes: int, seg: _Segment):
        self.object_id = object_id
        self.shape = shape
        self.dtype = dtype
        self.nbytes = nbytes
        #: The segment holding the bytes.  An adopted worker result
        #: stays an unmapped name until the coordinator itself reads it.
        self.seg = seg
        #: ``id()`` of the array this entry was put from: its key in the
        #: store's dedup cache, purged with the entry.
        self.dedup_key: int | None = None
        self.refcount = 1
        #: In-flight transfer pins: a pinned entry is not freed, even at
        #: refcount zero (freed on last unpin).
        self.pins = 0


class ObjectStore:
    """Coordinator-side shared-memory object store.

    One per :class:`~repro.runtime.engine.Runtime` (created lazily, or
    eagerly when the process backend passes data by reference).  All
    methods are thread-safe — task submission and completion touch the
    store from many scheduler threads.
    """

    _seq = 0
    _seq_lock = threading.Lock()

    def __init__(self) -> None:
        with ObjectStore._seq_lock:
            ObjectStore._seq += 1
            seq = ObjectStore._seq
        #: Every segment this store (or a worker serving it) creates
        #: starts with this prefix — the handle for crash-safe orphan
        #: sweeps.  pid + instance counter + random tag keeps prefixes
        #: unique across processes and store generations.
        self.prefix = f"rs{os.getpid():x}g{seq:x}{uuid.uuid4().hex[:6]}"
        self._entries: dict[str, _Entry] = {}
        #: id(array) -> (weakref to array, object_id): the put-once
        #: dedup cache (ten tasks sharing one block put it once).
        self._dedup: dict[int, tuple[Any, str]] = {}
        self._lock = threading.RLock()
        self._next_oid = 0
        self.closed = False
        self._stats = {
            "puts": 0,
            "put_bytes": 0,
            "dedup_hits": 0,
            "gets": 0,
            "adopted": 0,
            "adopted_bytes": 0,
            "releases": 0,
            "orphans_swept": 0,
        }

    # -- internals ------------------------------------------------------
    def _new_segment(self, data: Any) -> _Segment:
        self._next_oid += 1
        return _Segment.create(f"{self.prefix}c{self._next_oid:x}", data)

    def _entry(self, ref: ObjectRef | str) -> _Entry:
        oid = ref.object_id if isinstance(ref, ObjectRef) else ref
        entry = self._entries.get(oid)
        if entry is None:
            if self.closed:
                raise StoreError(f"object store is shut down (lookup of {oid})")
            raise StoreError(f"unknown or released object {oid}")
        return entry

    def _free_locked(self, entry: _Entry) -> None:
        self._entries.pop(entry.object_id, None)
        cached = self._dedup.get(entry.dedup_key)
        if cached is not None and cached[1] == entry.object_id:
            del self._dedup[entry.dedup_key]
        # Unlink the name; views handed out earlier keep their mapping.
        entry.seg.unlink()
        self._stats["releases"] += 1

    def _maybe_free_locked(self, entry: _Entry) -> None:
        if entry.refcount <= 0 and entry.pins == 0:
            self._free_locked(entry)

    # -- public API -----------------------------------------------------
    def put(self, value: Any) -> ObjectRef:
        """Store *value* (anything ``np.asarray`` accepts, object dtype
        excluded) and return its ref.  Putting the *same array object*
        again is a dedup hit returning the existing ref without copying
        — put-once/get-many."""
        if self.closed:
            raise StoreError("object store is shut down")
        if isinstance(value, ObjectRef):
            return value
        arr = np.asarray(value)
        if arr.dtype == object:
            raise StoreError("cannot store object-dtype arrays (no stable byte layout)")
        with self._lock:
            cached = self._dedup.get(id(value)) if isinstance(value, np.ndarray) else None
            if cached is not None:
                wr, oid = cached
                if wr() is value and oid in self._entries:
                    self._stats["dedup_hits"] += 1
                    return self._ref_of(self._entries[oid])
                del self._dedup[id(value)]
            contiguous = np.ascontiguousarray(arr)
            nbytes = int(contiguous.nbytes)
            seg = self._new_segment(contiguous)
            oid = f"{self.prefix}o{self._next_oid:x}"
            entry = _Entry(oid, tuple(contiguous.shape), contiguous.dtype.str, nbytes, seg)
            self._entries[oid] = entry
            if isinstance(value, np.ndarray):
                try:
                    self._dedup[id(value)] = (weakref.ref(value), oid)
                    entry.dedup_key = id(value)
                except TypeError:
                    pass
            self._stats["puts"] += 1
            self._stats["put_bytes"] += nbytes
            return self._ref_of(entry)

    def _ref_of(self, entry: _Entry) -> ObjectRef:
        return ObjectRef(
            object_id=entry.object_id,
            shape=entry.shape,
            dtype=entry.dtype,
            nbytes=entry.nbytes,
            segment=entry.seg.name,
        )

    def get(self, ref: ObjectRef | str, copy: bool = False) -> np.ndarray:
        """The stored array — a read-only zero-copy view by default
        (it outlives the object's release; pass ``copy=True`` for an
        independent array)."""
        with self._lock:
            entry = self._entry(ref)
            self._stats["gets"] += 1
            view = entry.seg.view(entry.shape, entry.dtype)
            return view.copy() if copy else view

    def adopt(self, object_id: str, segment: str, shape: tuple, dtype: str, nbytes: int) -> ObjectRef:
        """Take ownership of a segment created elsewhere (a worker's
        frozen task result) and track it like a local put.  Only the
        name is recorded: most results are read by other workers alone,
        so the coordinator maps the segment on its own first ``get`` and,
        if that never comes, unlinks it by name."""
        if self.closed:
            raise StoreError("object store is shut down")
        with self._lock:
            if object_id in self._entries:  # duplicate adopt: idempotent
                return self._ref_of(self._entries[object_id])
            nbytes = int(nbytes)
            entry = _Entry(object_id, tuple(shape), dtype, nbytes, _Segment(segment, nbytes))
            self._entries[object_id] = entry
            self._stats["adopted"] += 1
            self._stats["adopted_bytes"] += nbytes
            return self._ref_of(entry)

    def lease(self, ref: ObjectRef | str) -> str:
        """Pin *ref* for an in-flight transfer and return the segment
        name holding its bytes.  Every lease must be matched by
        :meth:`unlease`."""
        with self._lock:
            entry = self._entry(ref)
            entry.pins += 1
            return entry.seg.name

    def unlease(self, ref: ObjectRef | str) -> None:
        with self._lock:
            entry = self._entries.get(ref.object_id if isinstance(ref, ObjectRef) else ref)
            if entry is None:
                return
            entry.pins = max(0, entry.pins - 1)
            self._maybe_free_locked(entry)

    def incref(self, ref: ObjectRef | str) -> None:
        with self._lock:
            self._entry(ref).refcount += 1

    def decref(self, ref: ObjectRef | str) -> None:
        """Drop one reference; the last drop releases deterministically
        (segment unlinked, dedup entry purged)."""
        with self._lock:
            entry = self._entries.get(ref.object_id if isinstance(ref, ObjectRef) else ref)
            if entry is None:
                return
            entry.refcount -= 1
            self._maybe_free_locked(entry)

    release = decref

    def refcount(self, ref: ObjectRef | str) -> int:
        """Current refcount (0 = released/unknown)."""
        with self._lock:
            oid = ref.object_id if isinstance(ref, ObjectRef) else ref
            entry = self._entries.get(oid)
            return entry.refcount if entry is not None else 0

    def __contains__(self, ref: object) -> bool:
        if not isinstance(ref, (ObjectRef, str)):
            return False
        with self._lock:
            oid = ref.object_id if isinstance(ref, ObjectRef) else ref
            return oid in self._entries

    def deref(self, obj: Any, copy: bool = False) -> Any:
        """Deep-replace every ref in *obj* with its array (read-only
        views unless *copy*), rebuilding containers like
        ``resolve_futures``."""
        return _map_tree(obj, lambda ref: self.get(ref, copy=copy))

    # -- introspection --------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            pinned = [e for e in self._entries.values() if e.pins > 0]
            out = dict(self._stats)
            out.update(
                n_objects=len(self._entries),
                n_pinned=len(pinned),
                pinned_bytes=sum(e.nbytes for e in pinned),
                bytes_resident=sum(e.nbytes for e in self._entries.values()),
                # Always 0 (one tier); bench/harness.py still reads it.
                spills=0,
            )
            return out

    # -- shutdown / crash safety ---------------------------------------
    def shutdown(self) -> None:
        """Release every object, then sweep ``/dev/shm`` for leftover
        segments carrying this store's prefix — segments created by
        workers that crashed after creating but before the coordinator
        adopted them.  Idempotent."""
        with self._lock:
            if self.closed:
                return
            self.closed = True
            for entry in list(self._entries.values()):
                self._free_locked(entry)
            self._entries.clear()
            self._dedup.clear()
            self._stats["orphans_swept"] += self._sweep_orphans()

    def _sweep_orphans(self) -> int:
        return _sweep_shm(self.prefix)

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.shutdown()
        except Exception:  # noqa: BLE001
            pass


# ----------------------------------------------------------------------
# worker-process side
# ----------------------------------------------------------------------
class WorkerStore:
    """Per-worker segment cache and result freezer.

    Lives inside a worker process (:func:`repro.runtime.backends._worker_main`).
    ``thaw`` maps incoming refs to read-only views — a cached segment is
    a *hit* (zero bytes moved); a fresh attach counts its bytes as
    moved.  ``freeze`` writes large results into new segments (named
    under the coordinator store's prefix, so a crash before adoption is
    swept up by the coordinator) and returns refs in their place.
    """

    def __init__(self) -> None:
        #: segment name -> handle, insertion-ordered for LRU.  Evicting
        #: only drops the handle: a view a task body still holds keeps
        #: its mapping alive (see _Segment).
        self._cache: dict[str, _Segment] = {}
        self._cached_bytes = 0  # running sum of the cached segments' sizes
        self._created = 0

    def _remember(self, seg: _Segment) -> None:
        self._cache[seg.name] = seg
        self._cached_bytes += seg.size

    def thaw(self, obj: Any, info: dict) -> Any:
        """Replace refs in *obj* with read-only views of their
        segments, recording hit/moved bytes into *info*."""

        def deref(ref: ObjectRef) -> np.ndarray:
            if ref.segment is None:
                raise StoreError(f"ref {ref.object_id} arrived without a segment name")
            seg = self._cache.get(ref.segment)
            hit = seg is not None
            if seg is None:
                seg = _Segment(ref.segment, ref.nbytes)
            view = seg.view(ref.shape, ref.dtype)  # raises if the segment is gone
            if hit:
                self._cache[ref.segment] = self._cache.pop(ref.segment)  # refresh LRU position
                info["hit_bytes"] += ref.nbytes
                info["hits"] += 1
            else:
                self._remember(seg)
                info["moved_bytes"] += ref.nbytes
                info["attached"] += 1
            return view

        return _map_tree(obj, deref)

    def freeze(self, obj: Any, prefix: str, threshold: int, info: dict) -> Any:
        """Replace large arrays in *obj* (result tree) with refs to
        fresh segments; ``info["created"]`` tells the coordinator what
        to adopt."""

        def maybe_freeze(value: Any) -> Any:
            if isinstance(value, np.ndarray) and value.dtype != object and value.nbytes >= threshold:
                contiguous = np.ascontiguousarray(value)
                self._created += 1
                name = f"{prefix}w{os.getpid():x}n{self._created:x}"
                # The result stays cached here too (as a name, mapped on
                # first read): a downstream task dispatched to this
                # worker finds it without going through the coordinator.
                self._remember(_Segment.create(name, contiguous))
                oid = f"{name}-r"
                ref = ObjectRef(
                    object_id=oid,
                    shape=tuple(contiguous.shape),
                    dtype=contiguous.dtype.str,
                    nbytes=int(contiguous.nbytes),
                    segment=name,
                )
                info["created"].append(
                    (oid, name, ref.shape, ref.dtype, ref.nbytes)
                )
                return ref
            return value

        if isinstance(obj, np.ndarray):
            return maybe_freeze(obj)
        if isinstance(obj, list):
            return [self.freeze(v, prefix, threshold, info) for v in obj]
        if isinstance(obj, tuple):
            return tuple(self.freeze(v, prefix, threshold, info) for v in obj)
        if isinstance(obj, dict):
            return {k: self.freeze(v, prefix, threshold, info) for k, v in obj.items()}
        return maybe_freeze(obj)

    def prune(self, cap_bytes: int) -> None:
        """Evict least-recently-used cached segments until the cache
        fits *cap_bytes*."""
        while self._cached_bytes > cap_bytes and self._cache:
            self._cached_bytes -= self._cache.pop(next(iter(self._cache))).size

    def cached_segments(self) -> list[str]:
        """Names of the cached segments, least recently used first."""
        return list(self._cache)

    def forget(self, prefix: str) -> None:
        """Drop every cached segment of the store named by *prefix* —
        it shut down, nothing will ask for them again."""
        for segment in [name for name in self._cache if name.startswith(prefix)]:
            self._cached_bytes -= self._cache.pop(segment).size

    @staticmethod
    def new_info() -> dict:
        return {"moved_bytes": 0, "hit_bytes": 0, "hits": 0, "attached": 0, "created": []}
