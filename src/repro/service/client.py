"""Client API of the queue service.

The sqlite file *is* the wire: a :class:`ServiceClient` in any process
pointed at the server's data directory can submit, query, cancel,
reprioritize and fetch results — WAL mode keeps readers and the single
writer out of each other's way, and every client call is one atomic
transaction through :class:`~repro.service.queue.DurableQueue`.

Task transport is by reference (``module:qualname``) plus pickled
arguments; the server resolves the function at delivery, exactly like
the process backend's workers.  The submission computes the task's
**lineage signature** (the PR-2 machinery:
:func:`~repro.runtime.checkpoint.function_identity` over the task's
source + a content fingerprint of its arguments), which the queue uses
to make result recording idempotent — and to make `submit` itself
idempotent: re-submitting the same call returns the same task.  An
explicit ``key=`` distinguishes intentionally-identical calls (or
provides the signature when arguments defy fingerprinting).
"""

from __future__ import annotations

import hashlib
import pickle
import time
import uuid
from pathlib import Path
from typing import Any, Callable

from repro.runtime import checkpoint as ckpt
from repro.runtime.tracectx import new_trace
from repro.service.db import Database
from repro.service.queue import DEFAULT_TENANT, TERMINAL_STATES, DurableQueue

__all__ = ["ServiceClient", "ServiceTaskError", "task_reference", "submission_signature"]


class ServiceTaskError(RuntimeError):
    """The task reached a terminal state without a usable value
    (failed after exhausting redeliveries, or was cancelled)."""

    def __init__(self, task_id: int, state: str, detail: str):
        super().__init__(f"task {task_id} {state}: {detail}")
        self.task_id = task_id
        self.state = state
        self.detail = detail


def task_reference(fn: Callable | str) -> tuple[str, str, str]:
    """Normalize a callable or ``"module:qualname"`` string to
    ``(module, qualname, display_name)``."""
    if isinstance(fn, str):
        module, sep, qualname = fn.partition(":")
        if not sep or not module or not qualname:
            raise ValueError(
                f"task reference must look like 'pkg.module:qualname', got {fn!r}"
            )
        return module, qualname, qualname.rsplit(".", 1)[-1]
    spec = getattr(fn, "spec", None)  # unwrap a @task decorator
    func = getattr(spec, "func", fn)
    module = getattr(func, "__module__", None)
    qualname = getattr(func, "__qualname__", None)
    if not module or not qualname or "<locals>" in qualname:
        raise ValueError(
            f"{fn!r} is not importable by name (module-level functions only)"
        )
    return module, qualname, qualname.rsplit(".", 1)[-1]


def submission_signature(
    fn: Callable | str,
    args: tuple,
    kwargs: dict,
    *,
    tenant: str,
    key: str | None = None,
) -> str:
    """Lineage signature of one submission.

    For a callable, :func:`~repro.runtime.checkpoint.function_identity`
    ties the signature to the task's *source*; for a string reference
    (or unfingerprintable arguments) the reference plus a random nonce
    stands in — delivery idempotency still holds (the signature is
    stored with the task), only cross-submission dedup is lost.
    An explicit *key* replaces the argument fingerprint entirely.
    """
    h = hashlib.sha256()
    h.update(f"svc|{tenant}|".encode())
    if callable(fn) or hasattr(fn, "spec"):
        spec = getattr(fn, "spec", None)
        func = getattr(spec, "func", fn)
        h.update(ckpt.function_identity(func).encode())
    else:
        h.update(str(fn).encode())
    if key is not None:
        h.update(f"|key:{key}".encode())
        return h.hexdigest()
    try:
        h.update(ckpt.fingerprint((args, kwargs)).encode())
    except ckpt.UnfingerprintableError:
        h.update(f"|nonce:{uuid.uuid4().hex}".encode())
    return h.hexdigest()


class ServiceClient:
    """Submit / query / steer tasks on a service's data directory."""

    def __init__(self, data_dir: str | Path):
        self.data_dir = Path(data_dir)
        self.db = Database(self.data_dir / "queue.db")
        self.queue = DurableQueue(self.db)

    def close(self) -> None:
        self.db.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- tenants --------------------------------------------------------
    def ensure_tenant(
        self, name: str, *, quota: int | None = None, weight: float = 1.0
    ) -> None:
        self.queue.ensure_tenant(name, quota=quota, weight=weight)

    # -- submission -----------------------------------------------------
    def submit(
        self,
        fn: Callable | str,
        *args: Any,
        tenant: str = DEFAULT_TENANT,
        priority: int = 0,
        max_retries: int | None = None,
        key: str | None = None,
        delay: float = 0.0,
        **kwargs: Any,
    ) -> int:
        """Enqueue ``fn(*args, **kwargs)`` and return the task id.

        *fn* is a module-level callable, a ``@task``-decorated
        function, or a ``"pkg.module:qualname"`` string.  *key* makes
        intentionally-identical submissions distinct (or idempotent:
        the same key always maps to the same task).
        """
        module, qualname, name = task_reference(fn)
        signature = submission_signature(
            fn, args, kwargs, tenant=tenant, key=key
        )
        payload = pickle.dumps((tuple(args), dict(kwargs)))
        # Every submission roots a distributed trace.  The header rides
        # the durable task row (surviving leases, redeliveries and
        # server crashes); its "submitted" provenance row is the
        # trace's instantaneous "submit" span.
        task_id = self.queue.submit(
            tenant=tenant,
            name=name,
            module=module,
            qualname=qualname,
            payload=payload,
            signature=signature,
            priority=priority,
            max_retries=max_retries,
            delay=delay,
            trace_ctx=new_trace().to_header(),
        )
        return task_id

    # -- queries --------------------------------------------------------
    def status(self, task_id: int) -> dict[str, Any] | None:
        return self.queue.task(task_id)

    def list_tasks(self, **filters: Any) -> list[dict[str, Any]]:
        return self.queue.list_tasks(**filters)

    def counts(self) -> dict[str, Any]:
        return self.queue.stats()

    # -- steering -------------------------------------------------------
    def cancel(self, task_id: int) -> str:
        return self.queue.cancel(task_id)

    def reprioritize(self, task_id: int, priority: int) -> bool:
        return self.queue.reprioritize(task_id, priority)

    # -- results --------------------------------------------------------
    def result(self, task_id: int, *, timeout: float | None = None) -> Any:
        """The task's value, blocking until it reaches a terminal
        state.  Raises :class:`ServiceTaskError` for failed/cancelled
        tasks and :class:`TimeoutError` on *timeout*."""
        deadline = None if timeout is None else time.monotonic() + timeout
        poll = 0.02
        while True:
            row = self.queue.task(task_id)
            if row is None:
                raise ServiceTaskError(task_id, "unknown", "no such task")
            if row["state"] in TERMINAL_STATES:
                break
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"task {task_id} still {row['state']} after {timeout}s"
                )
            time.sleep(poll)
            poll = min(poll * 1.5, 0.25)
        if row["state"] == "cancelled":
            raise ServiceTaskError(task_id, "cancelled", "cancelled before completion")
        result = self.queue.lookup_result(row["signature"])
        if result is None:
            raise ServiceTaskError(task_id, row["state"], "no result recorded")
        if result["status"] != "ok":
            detail = (result["payload"] or b"").decode("utf-8", "replace")
            raise ServiceTaskError(task_id, "failed", detail)
        return pickle.loads(result["payload"])

    def wait_all(
        self, task_ids: list[int], *, timeout: float | None = None
    ) -> dict[int, Any]:
        """Block until every id is terminal; returns ``{id: value}``
        for the successful ones (failed/cancelled ids are omitted)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        values: dict[int, Any] = {}
        for task_id in task_ids:
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            try:
                values[task_id] = self.result(task_id, timeout=remaining)
            except ServiceTaskError:
                continue
        return values
