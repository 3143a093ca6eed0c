"""Worker pool of the queue service: leases in, results out.

Each worker thread loops claim → dedup-check → execute → report.
Execution goes through the server's embedded
:class:`~repro.runtime.engine.Runtime` (submitted with
``initial_attempt`` set to the queue-level attempt), so service tasks
get the whole single-process machinery for free: the configured
execution backend (threads or real worker processes), the shared-memory
data plane, ``current_attempt()`` inside bodies, and tracing.  The
queue owns redelivery, so runtime-level retries are disabled
(``max_retries=0``) — a body failure surfaces here and is reported via
:meth:`DurableQueue.fail_attempt`.

A single heartbeater thread extends the leases of every in-flight task;
if the pool goes dark (crash, stall) the server-side sweeper expires
the leases and the queue redelivers.  The dedup check between claim and
execution closes the common duplicate window: a redelivered task whose
result landed meanwhile is resolved without running the body again.

The pool is fail-stop: a body that raises a ``BaseException`` kills
the embedded runtime, and from then on the pool claims nothing.  A
``SystemExit`` or ``KeyboardInterrupt`` fails its own task, so that
delivery is charged like any failed attempt.  Every other delivery
still out — one that only waited on the dead runtime, or one whose
body raised ``WorkflowKilledError``, which stands for the process
dying — is handed back to the queue uncharged, as a crash would leave
it for the next server incarnation.
"""

from __future__ import annotations

import inspect
import pickle
import threading
import traceback
from typing import Any

from repro.runtime.backends import _resolve_task_function
from repro.runtime.failures import TaskOptions
from repro.runtime.model import Constraints, TaskSpec
from repro.runtime.tracectx import TraceContext
from repro.service.queue import ClaimedTask, DurableQueue

__all__ = ["ServiceWorkerPool"]


class ServiceWorkerPool:
    """N claim-loop threads plus one heartbeater over a queue and a
    runtime.  Start with :meth:`start`; stop via :meth:`drain` (finish
    in-flight work, stop claiming) or :meth:`stop` (drain with no
    further claims, used by both shutdown paths)."""

    def __init__(
        self,
        queue: DurableQueue,
        runtime,
        *,
        server_id: str,
        n_workers: int = 2,
        lease_timeout: float = 5.0,
        poll_interval: float = 0.05,
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be > 0")
        self.queue = queue
        self.runtime = runtime
        self.server_id = server_id
        self.n_workers = int(n_workers)
        self.lease_timeout = float(lease_timeout)
        self.heartbeat_interval = self.lease_timeout / 3.0
        self.poll_interval = float(poll_interval)
        self._threads: list[threading.Thread] = []
        self._heartbeater: threading.Thread | None = None
        self._stop = threading.Event()
        self._draining = threading.Event()
        self._active: dict[int, str] = {}  # task_id -> worker name
        self._active_lock = threading.Lock()
        self._spec_cache: dict[tuple[str, str], TaskSpec] = {}
        self.started = False

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        if self.started:
            return
        self.started = True
        for i in range(self.n_workers):
            thread = threading.Thread(
                target=self._worker_loop,
                args=(f"{self.server_id}/w{i}",),
                name=f"svc-worker-{i}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        self._heartbeater = threading.Thread(
            target=self._heartbeat_loop, name="svc-heartbeat", daemon=True
        )
        self._heartbeater.start()

    def drain(self, timeout: float | None = None) -> bool:
        """Stop claiming, wait for in-flight deliveries to report.
        Returns True when every worker exited within *timeout*."""
        self._draining.set()
        ok = True
        for thread in self._threads:
            thread.join(timeout)
            ok = ok and not thread.is_alive()
        self._stop.set()
        if self._heartbeater is not None:
            self._heartbeater.join(timeout)
        return ok

    def stop(self, timeout: float | None = None) -> bool:
        return self.drain(timeout)

    @property
    def in_flight(self) -> int:
        with self._active_lock:
            return len(self._active)

    # -- loops ----------------------------------------------------------
    def _worker_loop(self, worker: str) -> None:
        idle_wait = self.poll_interval
        while not (self._stop.is_set() or self._draining.is_set()):
            if self.runtime.interruption() is not None:
                return  # fail-stop: the embedded runtime is dead
            claim = self.queue.claim(
                worker=worker, server=self.server_id, lease_timeout=self.lease_timeout
            )
            if claim is not None and self.runtime.interruption() is not None:
                # The runtime died between the check and the claim.
                self.queue.release(claim.id, worker, span_ctx=claim.span_ctx)
                return
            if claim is None:
                # Nothing deliverable: poll with a mild backoff (the
                # sqlite file is the only signalling channel between
                # processes, EQSQL-style).
                self._stop.wait(idle_wait)
                idle_wait = min(idle_wait * 1.5, self.poll_interval * 8)
                continue
            idle_wait = self.poll_interval
            with self._active_lock:
                self._active[claim.id] = worker
            try:
                self._process(claim, worker)
            finally:
                with self._active_lock:
                    self._active.pop(claim.id, None)

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
            with self._active_lock:
                active = list(self._active.items())
            for task_id, worker in active:
                try:
                    self.queue.heartbeat(task_id, worker, self.lease_timeout)
                except Exception:  # noqa: BLE001 - lease expiry handles it
                    pass

    # -- delivery -------------------------------------------------------
    def _spec_for(self, claim: ClaimedTask) -> TaskSpec:
        key = (claim.module, claim.qualname)
        spec = self._spec_cache.get(key)
        if spec is None:
            func = _resolve_task_function(claim.module, claim.qualname)
            try:
                params = tuple(inspect.signature(func).parameters)
            except (TypeError, ValueError):
                params = ()
            spec = TaskSpec(
                func=func,
                name=claim.name,
                returns=1,
                directions={},
                constraints=Constraints(),
                param_names=params,
            )
            self._spec_cache[key] = spec
        return spec

    def _process(self, claim: ClaimedTask, worker: str) -> None:
        # Every report hands back the delivery's span context: the
        # queue's row for it ends the span claim() started.
        span_ctx = claim.span_ctx
        # Idempotency fast path: a redelivered task whose first
        # delivery already recorded a result is *deduplicated, not
        # re-run* — no side effect happens twice.
        if self.queue.lookup_result(claim.signature) is not None:
            self.queue.resolve_deduplicated(claim.id, worker, span_ctx=span_ctx)
            return
        future = None
        try:
            args, kwargs = pickle.loads(claim.payload)
            spec = self._spec_for(claim)
            # This thread is bound to the embedded runtime with the
            # delivery's context: the task's span becomes a child of
            # this delivery, joining the client's trace.
            prev = self.runtime.bind_current_thread(
                span_ctx and TraceContext.from_header(span_ctx)
            )
            try:
                future = self.runtime.submit(
                    spec,
                    tuple(args),
                    dict(kwargs),
                    options=TaskOptions(max_retries=0),
                    initial_attempt=claim.attempt,
                )
                value = self.runtime.wait_on(future)
            finally:
                self.runtime.release_current_thread(prev)
        except BaseException as exc:  # noqa: BLE001 - reported to the queue
            if self.runtime.interruption() is not None and (future is None or not future.done):
                # Not this body's failure: it only waited on a runtime
                # another body killed.
                self.queue.release(claim.id, worker, span_ctx=span_ctx)
                return
            cause = exc.__cause__ if exc.__cause__ is not None else exc
            error = f"{type(cause).__name__}: {cause}"
            if not str(cause):
                error = f"{type(cause).__name__}: {traceback.format_exc(limit=3)}"
            self.queue.fail_attempt(claim.id, worker, error, span_ctx=span_ctx)
            return
        self.queue.complete(
            claim.id,
            claim.signature,
            payload=_encode_result(value),
            worker=worker,
            attempt=claim.attempt,
            status="ok",
            span_ctx=span_ctx,
        )


def _encode_result(value: Any) -> bytes:
    """Pickle a task's return value; an unpicklable result degrades to
    its repr (the execution still counts as completed — the value just
    cannot travel)."""
    try:
        return pickle.dumps(value)
    except Exception:  # noqa: BLE001 - degrade, do not fail the task
        return pickle.dumps(f"<unpicklable result: {value!r}>")
