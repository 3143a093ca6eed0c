"""The process backend: task bodies on persistent worker processes.

The engine (:mod:`repro.runtime.engine`) owns *scheduling* — dependency
release, help-while-waiting, retries, checkpoint replay — and runs each
resolved task body in one of two places:

* in the scheduling thread itself (``RuntimeConfig(backend="threads")``,
  the default): the engine calls the body directly.  NumPy kernels
  release the GIL, nested tasks see the live runtime, INOUT arguments
  are mutated in place.  This module only stamps the pid (``_pid``).
* on a persistent worker *process* (``backend="processes"``, or
  ``REPRO_BACKEND=processes``): :class:`ProcessPoolBackend` ships the
  call over a pipe to the idle worker :meth:`WorkerPool.acquire` pops —
  the COMPSs executor-process model — so pure Python task bodies (SMO
  loops, feature extraction) escape the GIL on multi-core machines.

Serialization layer
-------------------
Calls are framed as pickle **protocol 5** with out-of-band buffers:
NumPy blocks travel as raw buffer frames after the payload instead of
being copied into the pickle stream (:func:`_encode` / :func:`_decode`).
Functions are never pickled — a task is transported as its
``(module, qualname)`` and re-imported inside the worker, unwrapping
the ``@task`` decorator to the raw body (once per function: the worker
keeps the bodies it resolved).

Not every task can cross a process boundary.  The backend falls back to
an **inline** call (in-process semantics, same results) when:

* the task declares INOUT/OUT writes — mutations of the caller's
  objects cannot propagate back from another address space;
* the function is defined in a local scope (``<locals>`` in its
  qualname) — not importable by the worker;
* an argument or the result does not pickle;
* the worker cannot resolve the function (e.g. ``__main__`` tasks of a
  script the worker did not import).

Tasks that *nest* (submit sub-tasks) are dispatchable: inside a worker
there is no active runtime, so nested ``@task`` calls degrade to plain
inline calls and ``wait_on`` is a pass-through — same values, computed
within the worker.

Attempts: an in-process body runs on the calling thread, which the
engine has bound to the running attempt, so ``current_attempt()``
reads it there.  A worker binds one runtime-less
:class:`~repro.runtime.active.Binding` for its life and sets its
``attempt`` from each request before calling the body.

Data plane (shared-memory object store)
---------------------------------------
When the backend is built with an
:class:`~repro.runtime.store.ObjectStore`, large NumPy arguments stop
crossing the pipe: the coordinator *freezes* them into shared-memory
segments (put-once — repeated arguments are dedup hits) and sends tiny
:class:`~repro.runtime.store.ObjectRef` handles instead.  The worker
maps each segment once into a bounded cache and hands the task body a
read-only zero-copy view; large results are frozen by the worker into
fresh segments that the coordinator adopts into the store by name, so
task chains move references, never buffers.  There is no placement
rule beyond the pool's: the idle worker released last is picked, and a
worker is released before its task's result is published, so the next
link of a chain lands on the worker that froze (and still caches) its
input (DESIGN.md §25).  At shutdown the backend tells the idle pooled
workers to forget its store's segments.
``stats()`` exposes the accounting — ``pipe_bytes_sent/recv``,
``store_bytes_moved`` (fresh segment attaches), ``store_bytes_saved``
(pickle bytes avoided), ``store_hits``/``store_misses`` (worker cache).

Worker lifecycle
----------------
Workers are started lazily and kept in one module-level pool shared by
every Runtime, so short-lived runtimes (the test suite creates
hundreds) do not pay start-up costs.  Each worker is forked from a
``forkserver`` that preloaded this module, and with it numpy: the
interpreter and its imports are paid once per server, and a worker
(a crashed one's replacement too) costs a fork and a warm-up ping.
Per task, a worker imports the task's module.  Neither pulls in the
engine, its configuration, checkpointing or observability — ``@task``
finds the governing runtime through :mod:`repro.runtime.active`, and
the package resolves coordinator-only names on first access
(``tests/test_imports.py``).  The server preloads only what the
environment can import: Python 3.11's server ignores the coordinator's
``sys.path`` for its own preload, so without ``repro`` on
``PYTHONPATH`` (or installed) each worker imports after the fork.  A
worker that dies mid-call — crash, OOM kill, or a body that SIGKILLs
its own process — is detected by the broken pipe and surfaces as
:class:`~repro.runtime.exceptions.NodeFailureError` in the dispatching
thread, which feeds the ordinary ``on_failure``/retry machinery.
``shutdown_workers()`` (also registered ``atexit``) closes the pool and
then stops and reaps the server, so no process outlives it and the
workers' peak RSS reaches the coordinator's ``RUSAGE_CHILDREN``.
"""

from __future__ import annotations

import atexit
import gc
import importlib
import logging
import os
import pickle
import select
import signal
import struct
import sys
import threading
import time
from typing import Any

import numpy as np

from repro.runtime import store as _store
from repro.runtime.active import Binding, _tls, current_attempt  # noqa: F401 - re-exported
from repro.runtime.exceptions import NodeFailureError
from repro.runtime.store import ObjectRef, ObjectStore, StoreError, WorkerStore

_logger = logging.getLogger("repro.runtime.backends")

#: Seconds to wait for a fresh worker's warm-up ping reply.
_SPAWN_TIMEOUT = 30.0


#: This process's pid, stamped on every in-process run; a fork (a pool
#: worker forked from the server) refreshes it in the child.
_pid = os.getpid()


def _refresh_pid() -> None:
    global _pid
    _pid = os.getpid()


os.register_at_fork(after_in_child=_refresh_pid)


# ----------------------------------------------------------------------
# serialization: pickle protocol 5 + out-of-band buffers over a pipe
# ----------------------------------------------------------------------
def _encode(obj: Any) -> list[bytes]:
    """Frame *obj* as ``[count-header, payload, buffer...]``.

    NumPy arrays (anything exporting :class:`pickle.PickleBuffer`) stay
    out of the pickle stream and travel as raw trailing frames — no
    intermediate copy into the payload bytes."""
    buffers: list[pickle.PickleBuffer] = []
    payload = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    frames = [struct.pack("<I", len(buffers)), payload]
    frames.extend(buf.raw() for buf in buffers)
    return frames


def _decode(frames: list[bytes]) -> Any:
    return pickle.loads(frames[1], buffers=frames[2:])


def _send_frames(conn, frames: list[bytes]) -> None:
    for frame in frames:
        conn.send_bytes(frame)


def _recv_frames(conn) -> list[bytes]:
    """Receive one framed message.  Raises ``EOFError``/``OSError`` when
    the peer died — connection errors mean *crash*, never bad data."""
    header = conn.recv_bytes()
    (n_buffers,) = struct.unpack("<I", header)
    frames = [header, conn.recv_bytes()]
    for _ in range(n_buffers):
        frames.append(conn.recv_bytes())
    return frames


def _send(conn, obj: Any) -> None:
    _send_frames(conn, _encode(obj))


def _recv(conn) -> Any:
    return _decode(_recv_frames(conn))


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------
def _resolve_task_function(module_name: str, qualname: str):
    """Import ``module_name`` and walk to ``qualname``, unwrapping a
    ``@task`` decorator to the raw body (the module attribute is the
    wrapper; ``wrapper.spec.func`` is the function to call)."""
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    spec = getattr(obj, "spec", None)
    func = getattr(spec, "func", None)
    if callable(func):
        return func
    if callable(obj):
        return obj
    raise TypeError(f"{module_name}.{qualname} is not callable")


#: Raw task bodies this worker process has resolved, by ``(module,
#: qualname)``: import and attribute walk run once per function.
_worker_bodies: dict[tuple[str, str], Any] = {}


def _worker_task_function(module_name: str, qualname: str):
    """:func:`_resolve_task_function`, cached for the life of the
    worker.  A failure is not cached: the next request for the function
    tries again and is reported unresolvable again."""
    key = (module_name, qualname)
    func = _worker_bodies.get(key)
    if func is None:
        func = _worker_bodies[key] = _resolve_task_function(module_name, qualname)
    return func


def _safe_send(conn, reply: tuple) -> None:
    """Send ``(kind, value, pid, info)``; if *value* (a result or an
    exception) does not serialize, send a stand-in carrying its
    ``repr`` — built only here, on the failure path: the ``repr`` of an
    array result costs more than its task.  The worker must answer
    every request exactly once or the coordinator would read it as a
    crash."""
    try:
        frames = _encode(reply)
    except Exception:
        kind, value, pid, info = reply
        try:
            text = repr(value)[:200]
        except Exception:  # noqa: BLE001 - a broken __repr__ must not kill the worker
            text = f"<{type(value).__name__}>"
        if kind == "raised":
            value = RuntimeError(f"worker exception did not pickle: {text}")
            frames = _encode(("raised", value, pid, info))
        else:
            frames = _encode(("badresult", text, pid, info))
    _send_frames(conn, frames)


def _worker_main(conn) -> None:
    """Loop of one worker process: serve ``run`` requests until told to
    exit or the pipe closes."""
    # Everything inherited from the fork server is long-lived: keep the
    # collector from walking (and so copying) those pages.
    gc.freeze()
    # The coordinator owns interrupt handling; a Ctrl-C against the
    # process group must not tear down workers mid-reply.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    pid = _pid
    worker_store = WorkerStore()
    # The worker's one binding: no runtime (a nested ``@task`` call runs
    # inline), and the attempt of the request being served.
    bound = _tls.bound = Binding()
    while True:
        try:
            request = _recv(conn)
        except (EOFError, OSError):
            return  # coordinator went away
        kind = request[0]
        if kind == "exit":
            return
        if kind == "ping":
            _send(conn, ("pong", pid, worker_store.cached_segments()))
            continue
        if kind == "forget":  # a store shut down; no reply expected
            worker_store.forget(request[1])
            continue
        _, module_name, qualname, args, kwargs, attempt, store_cfg = request
        info = None
        if store_cfg is not None:
            # Data plane active: map incoming refs to read-only views
            # (cache hit = zero bytes moved) before the body runs.
            info = WorkerStore.new_info()
            try:
                args = worker_store.thaw(args, info)
                kwargs = worker_store.thaw(kwargs, info)
            except Exception as exc:  # noqa: BLE001 - segment gone = data error
                _send(conn, ("unresolvable", f"{type(exc).__name__}: {exc}", pid))
                continue
        try:
            func = _worker_task_function(module_name, qualname)
        except Exception as exc:  # noqa: BLE001 - reported, not fatal
            _send(conn, ("unresolvable", f"{type(exc).__name__}: {exc}", pid))
            continue
        try:
            bound.attempt = attempt
            value = func(*args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - relayed to coordinator
            _safe_send(conn, ("raised", exc, pid, info))
            continue
        if store_cfg is not None:
            # Freeze large results into fresh segments (adopted by the
            # coordinator) and trim the attachment cache to budget.
            try:
                value = worker_store.freeze(
                    value, store_cfg["prefix"], store_cfg["threshold"], info
                )
            except Exception:  # noqa: BLE001 - fall back to pickling the value
                pass
            worker_store.prune(store_cfg["cache_bytes"])
        _safe_send(conn, ("ok", value, pid, info))


class _WorkerDied(Exception):
    """Internal: the pipe to a worker broke (crash or kill)."""


_spawn_lock = threading.Lock()


def _start_without_main_reimport(process) -> None:
    """Start a worker process *without* re-importing the parent's
    ``__main__`` module in the child.

    A forkserver child still runs ``spawn.prepare()`` on the parent's
    preparation data: that is how it gets the coordinator's ``sys.path``
    and working directory, and the same data would re-run the parent's
    main script so objects pickled from ``__main__`` can be rebuilt.
    This backend never pickles anything from ``__main__`` (tasks travel
    by ``(module, qualname)`` and ``__main__`` tasks run inline), so the
    re-import is pure cost *and* a hazard: an unguarded workflow script
    would recursively execute on every worker start.  The preparation
    data is patched for the duration of ``start()`` (under a lock —
    concurrent starts see the same, idempotent patch)."""
    from multiprocessing import spawn as mp_spawn

    with _spawn_lock:
        original = mp_spawn.get_preparation_data

        def stripped(name):
            data = original(name)
            data.pop("init_main_from_path", None)
            data.pop("init_main_from_name", None)
            return data

        mp_spawn.get_preparation_data = stripped
        try:
            process.start()
        finally:
            mp_spawn.get_preparation_data = original


class _Worker:
    """Coordinator-side handle of one worker process."""

    def __init__(self, ctx):
        parent_conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn,),
            name="repro-backend-worker",
            daemon=True,
        )
        _start_without_main_reimport(self.process)
        child_conn.close()
        self.conn = parent_conn
        self.pid: int | None = self.process.pid
        # The process sentinel turns readable when the worker has exited.
        # ``Process.is_alive()`` on a forkserver child builds a selector
        # per call; the pool asks twice per task.
        self._exited = select.poll()
        self._exited.register(self.process.sentinel, select.POLLIN)

    def warm_up(self, timeout: float = _SPAWN_TIMEOUT) -> None:
        _send(self.conn, ("ping",))
        if not self.conn.poll(timeout):
            self.close()
            raise TimeoutError(f"worker {self.pid} did not answer warm-up ping")
        reply = _recv(self.conn)
        self.pid = reply[1]

    def call(self, frames: list[bytes]) -> list[bytes]:
        """Send one encoded request, block for the reply frames.  Raises
        :class:`_WorkerDied` when the worker process is gone."""
        try:
            _send_frames(self.conn, frames)
            return _recv_frames(self.conn)
        except (EOFError, OSError, BrokenPipeError) as exc:
            raise _WorkerDied(str(exc)) from exc

    def alive(self) -> bool:
        return not self._exited.poll(0)

    def close(self, timeout: float = 1.0) -> None:
        try:
            _send(self.conn, ("exit",))
        except (OSError, ValueError):
            pass
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout)
        try:
            self.conn.close()
        except OSError:
            pass


class WorkerPool:
    """Lazily-grown pool of persistent worker processes.

    One module-level instance is shared by every
    :class:`ProcessPoolBackend` (see :func:`get_worker_pool`): workers
    outlive individual Runtimes, so a suite creating hundreds of
    short-lived runtimes starts each worker once, not once per
    runtime.  Workers are forked from a ``forkserver`` that preloads
    this module (and numpy), so a worker costs a fork, not an
    interpreter start.  Concurrency *limits* are per-backend
    (``max_workers`` semaphore), not per-pool."""

    def __init__(self):
        import multiprocessing

        self._ctx = multiprocessing.get_context("forkserver")
        self._ctx.set_forkserver_preload([__name__])
        self._idle: list[_Worker] = []
        self._all: list[_Worker] = []
        self._lock = threading.Lock()
        self.spawned = 0
        self.closed = False

    def acquire(self) -> _Worker:
        """The idle live worker released last, or a freshly spawned +
        warmed-up one.  Last in, first out: a worker is released before
        its task's result is published, so a dependent task dispatched
        next lands on the process that froze, and still caches, its
        input (DESIGN.md §25)."""
        while True:
            with self._lock:
                if self.closed:
                    raise RuntimeError("worker pool is shut down")
                worker = self._idle.pop() if self._idle else None
            if worker is None:
                break
            if worker.alive():
                return worker
            self._forget(worker)
            worker.close(timeout=0.1)
        worker = _Worker(self._ctx)
        try:
            worker.warm_up()
        except BaseException:
            worker.close(timeout=0.1)
            raise
        with self._lock:
            self._all.append(worker)
            self.spawned += 1
        return worker

    def release(self, worker: _Worker) -> None:
        if not worker.alive():
            self.discard(worker)
            return
        with self._lock:
            if not self.closed:
                self._idle.append(worker)
                return
        worker.close(timeout=0.1)

    def discard(self, worker: _Worker) -> None:
        """Drop a dead (or poisoned) worker for good."""
        self._forget(worker)
        worker.close(timeout=0.1)

    def _forget(self, worker: _Worker) -> None:
        with self._lock:
            if worker in self._all:
                self._all.remove(worker)
            if worker in self._idle:
                self._idle.remove(worker)

    @property
    def n_workers(self) -> int:
        with self._lock:
            return len(self._all)

    def tell_idle(self, message: tuple) -> None:
        """Send a reply-less *message* to every idle worker.  The pool
        lock keeps them idle meanwhile; an idle worker sits in ``recv``
        on an empty pipe, so these few bytes cannot block."""
        frames = _encode(message)
        with self._lock:
            for worker in self._idle:
                try:
                    _send_frames(worker.conn, frames)
                except (OSError, ValueError):
                    pass  # dead worker: acquire() weeds it out

    def shutdown(self) -> None:
        with self._lock:
            self.closed = True
            workers = list(self._all)
            self._all.clear()
            self._idle.clear()
        for worker in workers:
            worker.close()


_pool: WorkerPool | None = None
_pool_lock = threading.Lock()


def get_worker_pool() -> WorkerPool:
    """The shared worker pool, created on first use."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool.closed:
            _pool = WorkerPool()
        return _pool


def _stop_fork_server() -> None:
    """Stop and reap the workers' fork server, if one was started.

    CPython has no public stop; ``ForkServer._stop`` (3.8+) closes the
    server's "alive" pipe and waits for it, and the server has reaped
    every worker it forked, so their ``ru_maxrss`` rolls up into this
    process's ``RUSAGE_CHILDREN``.  Never starts a server."""
    forkserver = sys.modules.get("multiprocessing.forkserver")
    if forkserver is None or forkserver._forkserver._forkserver_pid is None:
        return
    try:
        forkserver._forkserver._stop()
    except FileNotFoundError:
        # at interpreter exit multiprocessing's finalizer may have
        # removed the temp dir holding the server's socket already
        pass


def shutdown_workers() -> None:
    """Terminate every pooled worker process and their fork server
    (both re-created on demand)."""
    with _pool_lock:
        pool = _pool
    if pool is not None:
        pool.shutdown()
    _stop_fork_server()


atexit.register(shutdown_workers)


# ----------------------------------------------------------------------
# the process backend
# ----------------------------------------------------------------------
class ProcessPoolBackend:
    """Dispatch task bodies to persistent worker processes.

    ``run`` receives the task's :class:`~repro.runtime.model.TaskSpec`,
    fully-resolved (future-free) arguments and the running attempt's
    number, and returns ``(result, pid, info)``: the pid of the process
    that executed the body (recorded in the trace) and the call's
    data-plane accounting (``bytes_moved``/``bytes_saved``, or ``None``
    when the call did not go through the store).  A worker process that
    dies during the call surfaces as
    :class:`~repro.runtime.exceptions.NodeFailureError`.

    ``max_workers`` bounds the calls in flight (a semaphore over the
    shared :class:`WorkerPool`); non-dispatchable calls fall back to an
    inline invocation with identical semantics (see the module
    docstring for the rules).  With an :class:`ObjectStore` attached
    (``store=``), large array arguments and results travel by reference
    through shared memory, and ``handles_refs`` tells the engine to
    leave :class:`~repro.runtime.store.ObjectRef` arguments as they
    are."""

    name = "processes"

    def __init__(self, max_workers: int, store: ObjectStore | None = None):
        self.max_workers = max(1, int(max_workers))
        self._store = store
        self.handles_refs = store is not None
        self._slots = threading.BoundedSemaphore(self.max_workers)
        self._lock = threading.Lock()
        self._counts = {
            "dispatched": 0,
            "inline": 0,
            "serialization_fallbacks": 0,
            "unresolvable": 0,
            "result_fallbacks": 0,
            "worker_crashes": 0,
            # -- data-plane counters (all zero without a store) --------
            "pipe_bytes_sent": 0,
            "pipe_bytes_recv": 0,
            "store_bytes_moved": 0,
            "store_bytes_saved": 0,
            "store_hits": 0,
            "store_misses": 0,
        }
        #: Cumulative seconds spent encoding requests and decoding
        #: replies on the coordinator side — the serialization share of
        #: dispatch overhead (``stats()["serialization_seconds"]``).
        self._serialization_seconds = 0.0
        #: spec ids proven non-dispatchable (writes, locals, resolution
        #: failure) — skip the round trip next time.
        self._inline_only: set[int] = set()

    # -- dispatch rules -------------------------------------------------
    def _dispatchable(self, spec) -> bool:
        if id(spec) in self._inline_only:
            return False
        func = spec.func
        module = getattr(func, "__module__", None)
        qualname = getattr(func, "__qualname__", "")
        ok = (
            not spec.has_writes  # INOUT mutations cannot cross processes
            # Workers never import the coordinator's main script (see
            # _start_without_main_reimport), so __main__ tasks run here.
            and module not in (None, "__main__", "__mp_main__")
            and "<locals>" not in qualname
        )
        if not ok:
            with self._lock:
                self._inline_only.add(id(spec))
        return ok

    def _count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self._counts[key] += n

    def _run_inline(self, spec, args, kwargs):
        if self._store is not None:
            # Fallback args may carry refs (future results live in the
            # store); the inline body needs the concrete arrays.
            args = self._store.deref(args)
            kwargs = self._store.deref(kwargs)
        self._count("inline")
        return spec.func(*args, **kwargs), _pid, None

    # -- data plane -----------------------------------------------------
    def _freeze_args(self, obj: Any, leases: list) -> Any:
        """Replace large arrays in *obj* with refs.  Leases pin each
        object until the call completes."""
        store = self._store
        assert store is not None
        threshold = _store.THRESHOLD_BYTES

        def freeze(value: Any) -> Any:
            if isinstance(value, ObjectRef):
                store.lease(value)
                leases.append(value)
                return value
            if (
                isinstance(value, np.ndarray)
                and value.dtype != object
                and value.nbytes >= threshold
            ):
                ref = store.put(value)
                store.lease(ref)
                leases.append(ref)
                return ref
            if isinstance(value, list):
                return [freeze(v) for v in value]
            if isinstance(value, tuple):
                return tuple(freeze(v) for v in value)
            if isinstance(value, dict):
                return {k: freeze(v) for k, v in value.items()}
            return value

        return freeze(obj)

    def _absorb_info(self, info: dict | None) -> dict | None:
        """Fold one reply's data-plane accounting into the counters and
        the store (adopting worker-created result segments).  Returns
        the per-call summary for the trace."""
        if info is None:
            return None
        store = self._store
        created_bytes = 0
        if store is not None:
            for oid, segment, shape, dtype, nbytes in info["created"]:
                try:
                    store.adopt(oid, segment, shape, dtype, nbytes)
                    created_bytes += nbytes
                except StoreError:
                    pass  # store shut down mid-call: segment swept later
        moved = info["moved_bytes"]
        # "Saved" counts pickle-pipe bytes avoided: every by-ref input
        # byte (whether freshly mapped or a cache hit) plus every
        # worker-frozen result byte.  "Moved" is the subset that had to
        # be mapped into the worker fresh — the cache miss cost.
        saved = moved + info["hit_bytes"] + created_bytes
        with self._lock:
            self._counts["store_bytes_moved"] += moved
            self._counts["store_bytes_saved"] += saved
            self._counts["store_hits"] += info["hits"]
            self._counts["store_misses"] += info["attached"]
        return {"bytes_moved": moved, "bytes_saved": saved}

    # -- execution ------------------------------------------------------
    def run(self, spec, args, kwargs, *, attempt=0):
        if not self._dispatchable(spec):
            return self._run_inline(spec, args, kwargs)
        store = self._store
        leases: list[ObjectRef] = []
        store_cfg = None
        try:
            if store is not None:
                store_cfg = {
                    "prefix": store.prefix,
                    "threshold": _store.THRESHOLD_BYTES,
                    "cache_bytes": _store.WORKER_CACHE_BYTES,
                }
                try:
                    frozen = self._freeze_args((args, kwargs), leases)
                except (StoreError, OSError):
                    # A released ref, an unstorable argument, a store shut
                    # down or a full /dev/shm: run where the data is, on
                    # the caller's own arguments.
                    return self._run_inline(spec, args, kwargs)
                args, kwargs = frozen
            request = (
                "run",
                spec.func.__module__,
                spec.func.__qualname__,
                args,
                kwargs,
                attempt,
                store_cfg,
            )
            t0 = time.perf_counter()
            try:
                frames = _encode(request)
            except Exception:  # unpicklable argument: run where the data is
                self._count("serialization_fallbacks")
                return self._run_inline(spec, args, kwargs)
            finally:
                with self._lock:
                    self._serialization_seconds += time.perf_counter() - t0

            with self._slots:
                pool = get_worker_pool()
                worker = pool.acquire()
                pid = worker.pid or -1
                self._count("pipe_bytes_sent", sum(len(f) for f in frames))
                try:
                    reply_frames = worker.call(frames)
                except _WorkerDied as exc:
                    pool.discard(worker)
                    self._count("worker_crashes")
                    raise NodeFailureError(pid, task_name=spec.name) from exc
                pool.release(worker)
                self._count("pipe_bytes_recv", sum(len(f) for f in reply_frames))
        finally:
            if store is not None:
                for ref in leases:
                    store.unlease(ref)

        t0 = time.perf_counter()
        try:
            reply = _decode(reply_frames)
        except Exception as exc:  # noqa: BLE001 - a data error, not a crash
            raise RuntimeError(
                f"undecodable reply from worker {pid} for task "
                f"{spec.name!r}: {exc!r}"
            ) from exc
        finally:
            with self._lock:
                self._serialization_seconds += time.perf_counter() - t0
        kind = reply[0]
        info = self._absorb_info(reply[3] if len(reply) > 3 else None)
        if kind == "ok":
            self._count("dispatched")
            return reply[1], reply[2], info
        if kind == "raised":
            self._count("dispatched")
            error = reply[1]
            try:
                error._repro_worker_pid = reply[2]
                # the failed attempt's data-plane accounting: input
                # segments were mapped before the body raised.
                error._repro_dinfo = info
            except Exception:  # noqa: BLE001 - slots/immutable exceptions
                pass
            raise error
        if kind == "unresolvable":
            # Worker could not import the function (e.g. __main__ task):
            # remember and run locally from now on.
            _logger.debug(
                "task %r not resolvable in worker (%s); running inline",
                spec.name,
                reply[1],
            )
            with self._lock:
                self._inline_only.add(id(spec))
            self._count("unresolvable")
            return self._run_inline(spec, args, kwargs)
        if kind == "badresult":
            # Result did not pickle; recompute locally (pure tasks only
            # are dispatched, so re-running is safe).
            _logger.debug("result of %r did not pickle (%s); running inline", spec.name, reply[1])
            with self._lock:
                self._inline_only.add(id(spec))
            self._count("result_fallbacks")
            return self._run_inline(spec, args, kwargs)
        raise RuntimeError(f"unknown worker reply {kind!r}")

    def shutdown(self) -> None:
        """Have the idle pooled workers drop what they cache of this
        backend's store.  The runtime unlinks every segment next;
        mappings left in the workers would pin those pages (up to the
        cache budget per worker) and be freed inside some later
        runtime's tasks."""
        pool = _pool
        if self._store is not None and pool is not None:
            pool.tell_idle(("forget", self._store.prefix))

    def stats(self) -> dict:
        pool = _pool
        with self._lock:
            counts = dict(self._counts)
            serialization_seconds = self._serialization_seconds
        hits, misses = counts["store_hits"], counts["store_misses"]
        out = {
            "backend": self.name,
            "max_workers": self.max_workers,
            "pool_workers": pool.n_workers if pool is not None else 0,
            "serialization_seconds": serialization_seconds,
            "store_enabled": self._store is not None,
            "store_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            # Always 0 (no locality steering); bench/harness.py still reads them (ROADMAP item 1a).
            "locality_hits": 0,
            "locality_misses": 0,
            **counts,
        }
        if self._store is not None:
            for key, value in self._store.stats().items():
                out[f"store_{key}"] = value
        return out

