"""The durable priority queue: every state transition one transaction.

Task lifecycle (all edges are single ``BEGIN IMMEDIATE`` transactions
in :class:`~repro.service.db.Database`)::

    submit ─▶ queued ─claim─▶ leased ─complete─▶ done
                ▲               │
                │   fail_attempt / release / expire_leases / recover
                └───(backoff)───┘            │
                                             └─▶ failed | cancelled

Delivery is **at-least-once**: a lease that misses its heartbeats
expires and the task is redelivered (with the runtime's exponential
backoff + deterministic jitter, :func:`repro.runtime.failures.retry_delay`).
Result recording is **idempotent**: the ``results`` table is keyed by
the task's lineage signature, so when a presumed-dead execution wakes
up and reports after its redelivery already completed, the duplicate
is discarded — never double-recorded — and a redelivered task whose
result already exists is resolved without re-running the body.

A lease is four columns of its task row (worker, server, holder pid,
``expires_at``), written by :meth:`~DurableQueue.claim` and cleared by
the same ``UPDATE`` that moves the task out of ``leased``.  The
``provenance`` table is the one event log: every transition appends
one row, :meth:`~DurableQueue.stats` counts them (each counter is one
event), and :meth:`~DurableQueue.span_rows` rebuilds the service's
``submit`` and ``deliver`` spans from them.

Claiming is multi-tenant fair-share: among tenants with deliverable
work and lease headroom under their quota, the one with the lowest
``active_leases / weight`` share is served first; within a tenant,
highest priority then FIFO.  ``reprioritize`` moves queued work
asynchronously — the OSPREY pattern of steering a long campaign while
it runs.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Any, Callable

from repro.runtime.failures import retry_delay
from repro.runtime.tracectx import TraceContext
from repro.service.db import Database

__all__ = ["ClaimedTask", "DurableQueue", "TERMINAL_STATES"]

#: Queue-level terminal states (no further transitions).
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

DEFAULT_TENANT = "default"

#: ``stats()["counters"]``: each counter counts the provenance rows of
#: one event (``heartbeats`` alone is a column, summed over tasks).
_COUNTER_EVENTS = {
    "submitted": "submissions",
    "duplicate_submission": "duplicate_submissions",
    "leased": "claims",
    "completed": "completions",
    "failed": "failures",
    "duplicate_discarded": "duplicates_discarded",
    "deduplicated": "dedup_skips",
    "stale_failure_ignored": "stale_reports",
    "requeued": "redeliveries",
    "lease_expired": "lease_expirations",
    "recovered": "recoveries",
    "cancelled": "cancellations",
    "reprioritized": "reprioritizations",
}

#: Status a worker's report gives the delivery span it ends; any other
#: reporting event (a failure, requeued or not) ends it as failed.
_SPAN_STATUS = {"completed": "ok", "duplicate_discarded": "ok", "deduplicated": "dedup"}

#: Clears the lease columns; part of every UPDATE that leaves 'leased'.
_RELEASE = "worker = NULL, server = NULL, holder_pid = NULL, expires_at = NULL"


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, owned elsewhere
        return True
    except OSError:
        return False
    return True


def _delivery_context(trace_ctx: str | None) -> str | None:
    """Traceparent of a new delivery span: a child of the submission's
    context (None for untraced or malformed submissions)."""
    if not trace_ctx:
        return None
    try:
        return TraceContext.from_header(trace_ctx).child().to_header()
    except ValueError:
        return None


def _start_row(ctx: TraceContext, name: str, parent: str | None, at: float, attributes) -> dict:
    return {
        "event": "start", "trace_id": ctx.trace_id, "span_id": ctx.span_id,
        "parent_id": parent, "name": name, "t_start": at, "attributes": attributes,
    }


def _end_row(ctx: TraceContext, at: float, status: str) -> dict:
    return {"event": "end", "span_id": ctx.span_id, "t_end": at, "status": status}


def _detail_fields(detail: str) -> dict[str, Any]:
    """``key=value`` words of a provenance detail (digits as ints)."""
    fields: dict[str, Any] = {}
    for word in detail.split():
        key, sep, value = word.partition("=")
        if sep:
            fields[key] = int(value) if value.isdigit() else value
    return fields


@dataclasses.dataclass(frozen=True)
class ClaimedTask:
    """One leased delivery: everything a worker needs to run the task
    and report back."""

    id: int
    tenant: str
    name: str
    module: str
    qualname: str
    payload: bytes
    signature: str
    priority: int
    attempt: int
    max_retries: int
    lease_expires_at: float
    #: Traceparent header minted at submission (None for tasks
    #: submitted by pre-tracing clients).  Survives redeliveries and
    #: server incarnations because it lives in the ``tasks`` row, not
    #: in any process's memory.
    trace_ctx: str | None = None
    #: Traceparent of this delivery's span, a child of ``trace_ctx``
    #: recorded on the ``leased`` provenance row.  The worker hands it
    #: back with its report, whose row ends the span.
    span_ctx: str | None = None


class DurableQueue:
    """Queue operations over one :class:`Database`.

    Stateless between calls — every method reads and writes the
    database only, so any number of ``DurableQueue`` instances (in any
    process) over the same file see one consistent queue.
    """

    def __init__(
        self,
        db: Database,
        *,
        default_max_retries: int = 2,
        retry_backoff: float = 0.05,
        retry_backoff_cap: float = 2.0,
        jitter_seed: int = 0,
        clock: Callable[[], float] = time.time,
    ):
        self.db = db
        self.default_max_retries = int(default_max_retries)
        self.retry_backoff = float(retry_backoff)
        self.retry_backoff_cap = float(retry_backoff_cap)
        self.jitter_seed = int(jitter_seed)
        self._clock = clock

    # -- internals ------------------------------------------------------
    def _now(self) -> float:
        return self._clock()

    @staticmethod
    def _log(
        conn,
        task_id: int | None,
        event: str,
        detail: str,
        at: float,
        span_ctx: str | None = None,
    ) -> None:
        conn.execute(
            "INSERT INTO provenance (task_id, event, detail, at, span_ctx) "
            "VALUES (?, ?, ?, ?, ?)",
            (task_id, event, detail, at, span_ctx),
        )

    def _redelivery_delay(self, name: str, task_id: int, attempt: int) -> float:
        """Backoff before redelivery *attempt* (1-based) — the same
        exponential + deterministic-jitter machinery the in-process
        runtime uses for task retries."""
        return retry_delay(
            self.retry_backoff,
            attempt,
            task_name=name,
            root_id=task_id,
            seed=self.jitter_seed,
            cap=self.retry_backoff_cap,
        )

    def _requeue_or_bury_locked(
        self,
        conn,
        row,
        *,
        detail: str,
        now: float,
        charge_attempt: bool,
        error_on_bury: str,
        span_ctx: str | None = None,
    ) -> str:
        """Shared tail of the redelivery paths (worker failure, release,
        lease expiry, crash recovery): drop the lease and either requeue
        with backoff, bury as failed when attempts are exhausted, or
        finalize a pending cancellation — one outcome row each.  Callers
        hold the transaction."""
        task_id = row["id"]
        if row["cancel_requested"]:
            conn.execute(
                f"UPDATE tasks SET state = 'cancelled', {_RELEASE}, updated_at = ? "
                "WHERE id = ?",
                (now, task_id),
            )
            self._log(conn, task_id, "cancelled", detail, now, span_ctx)
            return "cancelled"
        attempt = row["attempt"] + 1 if charge_attempt else row["attempt"]
        if charge_attempt and attempt > row["max_retries"]:
            conn.execute(
                f"UPDATE tasks SET state = 'failed', {_RELEASE}, updated_at = ? "
                "WHERE id = ?",
                (now, task_id),
            )
            conn.execute(
                "INSERT OR IGNORE INTO results "
                "(signature, task_id, status, payload, worker, attempt, recorded_at) "
                "VALUES (?, ?, 'error', ?, NULL, ?, ?)",
                (row["signature"], task_id, error_on_bury.encode(), row["attempt"], now),
            )
            self._log(conn, task_id, "failed", error_on_bury, now, span_ctx)
            return "failed"
        delay = self._redelivery_delay(row["name"], task_id, attempt) if charge_attempt else 0.0
        conn.execute(
            f"UPDATE tasks SET state = 'queued', attempt = ?, not_before = ?, {_RELEASE}, "
            "updated_at = ? WHERE id = ?",
            (attempt, now + delay, now, task_id),
        )
        self._log(
            conn, task_id, "requeued", detail + f" redelivery_delay={delay:.4f}s", now,
            span_ctx,
        )
        return "requeued"

    # -- tenants --------------------------------------------------------
    def ensure_tenant(
        self, name: str, *, quota: int | None = None, weight: float = 1.0
    ) -> None:
        """Create or update a tenant.  *quota* bounds concurrent leases
        (None = unbounded); *weight* scales its fair share."""
        if weight <= 0:
            raise ValueError("tenant weight must be > 0")
        if quota is not None and quota < 1:
            raise ValueError("tenant quota must be >= 1 (or None)")
        now = self._now()
        with self.db.transaction() as conn:
            conn.execute(
                "INSERT INTO tenants (name, quota, weight, created_at) VALUES (?, ?, ?, ?) "
                "ON CONFLICT(name) DO UPDATE SET quota = excluded.quota, "
                "weight = excluded.weight",
                (name, quota, weight, now),
            )

    def tenants(self) -> dict[str, dict[str, Any]]:
        return {
            row["name"]: {"quota": row["quota"], "weight": row["weight"]}
            for row in self.db.query("SELECT name, quota, weight FROM tenants")
        }

    # -- submission -----------------------------------------------------
    def submit(
        self,
        *,
        tenant: str = DEFAULT_TENANT,
        name: str,
        module: str,
        qualname: str,
        payload: bytes,
        signature: str,
        priority: int = 0,
        max_retries: int | None = None,
        delay: float = 0.0,
        trace_ctx: str | None = None,
    ) -> int:
        """Enqueue one task; returns its id.

        *signature* is the lineage signature (dedup key of result
        recording).  Submitting an identical signature again is
        idempotent: the existing task's id is returned instead of
        enqueueing a duplicate — clients that crash after submitting
        can blindly resubmit.
        """
        now = self._now()
        retries = self.default_max_retries if max_retries is None else int(max_retries)
        if retries < 0:
            raise ValueError("max_retries must be >= 0")
        with self.db.transaction() as conn:
            existing = conn.execute(
                "SELECT id FROM tasks WHERE signature = ?", (signature,)
            ).fetchone()
            if existing is not None:
                self._log(conn, existing["id"], "duplicate_submission", name, now)
                return int(existing["id"])
            conn.execute(
                "INSERT OR IGNORE INTO tenants (name, quota, weight, created_at) "
                "VALUES (?, NULL, 1.0, ?)",
                (tenant, now),
            )
            cur = conn.execute(
                "INSERT INTO tasks (tenant, name, module, qualname, payload, signature, "
                "priority, state, attempt, max_retries, not_before, submitted_at, "
                "updated_at, trace_ctx) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, 'queued', 0, ?, ?, ?, ?, ?)",
                (
                    tenant,
                    name,
                    module,
                    qualname,
                    payload,
                    signature,
                    int(priority),
                    retries,
                    now + max(0.0, delay),
                    now,
                    now,
                    trace_ctx,
                ),
            )
            task_id = int(cur.lastrowid)
            self._log(conn, task_id, "submitted", f"tenant={tenant} name={name}", now)
            return task_id

    # -- claiming (fair-share + priority) -------------------------------
    def claim(
        self, *, worker: str, server: str, lease_timeout: float
    ) -> ClaimedTask | None:
        """Lease the next deliverable task for *worker*, or None.

        Tenant selection: among tenants with deliverable queued work
        (``not_before`` elapsed) and active leases under their quota,
        pick the lowest ``active / weight`` share (ties: fewest active,
        then name).  Task selection within the tenant: highest
        priority, then FIFO.  The lease (held by this process's pid)
        commits in the same transaction as the selection — two workers
        can never claim one task.  The ``leased`` row carries the new
        delivery span's context.
        """
        now = self._now()
        with self.db.transaction() as conn:
            backlog = conn.execute(
                "SELECT tenant, COUNT(*) AS n FROM tasks "
                "WHERE state = 'queued' AND not_before <= ? GROUP BY tenant",
                (now,),
            ).fetchall()
            if not backlog:
                return None
            active = {
                row["tenant"]: row["n"]
                for row in conn.execute(
                    "SELECT tenant, COUNT(*) AS n FROM tasks "
                    "WHERE state = 'leased' GROUP BY tenant"
                )
            }
            limits = {
                row["name"]: (row["quota"], row["weight"])
                for row in conn.execute("SELECT name, quota, weight FROM tenants")
            }
            ranked: list[tuple[float, int, str]] = []
            for row in backlog:
                tenant = row["tenant"]
                quota, weight = limits.get(tenant, (None, 1.0))
                busy = active.get(tenant, 0)
                if quota is not None and busy >= quota:
                    continue  # tenant at its concurrency quota
                ranked.append((busy / weight, busy, tenant))
            if not ranked:
                return None
            _, _, tenant = min(ranked)
            task = conn.execute(
                "SELECT * FROM tasks WHERE tenant = ? AND state = 'queued' "
                "AND not_before <= ? ORDER BY priority DESC, id LIMIT 1",
                (tenant, now),
            ).fetchone()
            if task is None:  # pragma: no cover - backlog counted above
                return None
            expires = now + lease_timeout
            pid = os.getpid()
            span_ctx = _delivery_context(task["trace_ctx"])
            conn.execute(
                "UPDATE tasks SET state = 'leased', worker = ?, server = ?, "
                "holder_pid = ?, expires_at = ?, updated_at = ? WHERE id = ?",
                (worker, server, pid, expires, now, task["id"]),
            )
            self._log(
                conn,
                task["id"],
                "leased",
                f"worker={worker} server={server} attempt={task['attempt']} pid={pid}",
                now,
                span_ctx,
            )
            return ClaimedTask(
                id=task["id"],
                tenant=task["tenant"],
                name=task["name"],
                module=task["module"],
                qualname=task["qualname"],
                payload=task["payload"],
                signature=task["signature"],
                priority=task["priority"],
                attempt=task["attempt"],
                max_retries=task["max_retries"],
                lease_expires_at=expires,
                trace_ctx=task["trace_ctx"],
                span_ctx=span_ctx,
            )

    def heartbeat(self, task_id: int, worker: str, lease_timeout: float) -> bool:
        """Extend *worker*'s lease on *task_id*.  Returns False when
        the lease is gone (expired and redelivered, or stolen) — the
        caller has lost ownership and its eventual report will go
        through the idempotent-result path."""
        now = self._now()
        with self.db.transaction() as conn:
            cur = conn.execute(
                "UPDATE tasks SET expires_at = ?, heartbeats = heartbeats + 1 "
                "WHERE id = ? AND state = 'leased' AND worker = ?",
                (now + lease_timeout, task_id, worker),
            )
            return cur.rowcount == 1

    # -- completion (idempotent) ----------------------------------------
    def lookup_result(self, signature: str) -> dict[str, Any] | None:
        """The recorded result for *signature*, if any — the dedup
        check a worker runs before executing a redelivered task."""
        rows = self.db.query("SELECT * FROM results WHERE signature = ?", (signature,))
        return dict(rows[0]) if rows else None

    def complete(
        self,
        task_id: int,
        signature: str,
        *,
        payload: bytes | None,
        worker: str,
        attempt: int,
        status: str = "ok",
        span_ctx: str | None = None,
    ) -> str:
        """Record an execution's outcome idempotently.

        Returns ``"recorded"`` when this execution's result became the
        task's result, or ``"duplicate"`` when a result for the
        signature already existed (a redelivered twin finished first) —
        the late report is discarded, never double-recorded.  Either
        way the task reaches a terminal state and the lease is freed.
        *span_ctx* is the delivery's :attr:`ClaimedTask.span_ctx`: the
        row written here ends that span.
        """
        if status not in ("ok", "error"):
            raise ValueError(f"invalid result status {status!r}")
        now = self._now()
        with self.db.transaction() as conn:
            existing = conn.execute(
                "SELECT signature FROM results WHERE signature = ?", (signature,)
            ).fetchone()
            if existing is not None:
                conn.execute(
                    f"UPDATE tasks SET state = 'done', {_RELEASE}, updated_at = ? "
                    "WHERE id = ? AND state IN ('queued', 'leased')",
                    (now, task_id),
                )
                self._log(
                    conn, task_id, "duplicate_discarded", f"worker={worker}", now,
                    span_ctx,
                )
                return "duplicate"
            conn.execute(
                "INSERT INTO results (signature, task_id, status, payload, worker, "
                "attempt, recorded_at) VALUES (?, ?, ?, ?, ?, ?, ?)",
                (signature, task_id, status, payload, worker, attempt, now),
            )
            state = "done" if status == "ok" else "failed"
            conn.execute(
                f"UPDATE tasks SET state = ?, {_RELEASE}, updated_at = ? WHERE id = ?",
                (state, now, task_id),
            )
            self._log(
                conn, task_id, "completed" if status == "ok" else "failed",
                f"worker={worker} attempt={attempt}", now, span_ctx,
            )
            return "recorded"

    def resolve_deduplicated(
        self, task_id: int, worker: str, *, span_ctx: str | None = None
    ) -> None:
        """Finish a redelivered task whose result already exists
        without running it: the dedup fast path."""
        now = self._now()
        with self.db.transaction() as conn:
            conn.execute(
                f"UPDATE tasks SET state = 'done', {_RELEASE}, updated_at = ? "
                "WHERE id = ? AND state IN ('queued', 'leased')",
                (now, task_id),
            )
            self._log(conn, task_id, "deduplicated", f"worker={worker}", now, span_ctx)

    # -- failure & redelivery -------------------------------------------
    def fail_attempt(
        self, task_id: int, worker: str, error: str, *, span_ctx: str | None = None
    ) -> str:
        """Report a failed execution.  Requeues with backoff while
        retries remain, buries as ``failed`` (recording an error
        result) when exhausted.  A report from a worker whose lease was
        already lost is ignored (``"stale"``) — the live delivery owns
        the task now."""
        now = self._now()
        with self.db.transaction() as conn:
            row = conn.execute("SELECT * FROM tasks WHERE id = ?", (task_id,)).fetchone()
            if row is None or row["state"] != "leased" or row["worker"] != worker:
                self._log(
                    conn, task_id, "stale_failure_ignored", f"worker={worker}", now,
                    span_ctx,
                )
                return "stale"
            return self._requeue_or_bury_locked(
                conn,
                row,
                detail=f"failure worker={worker}: {error}",
                now=now,
                charge_attempt=True,
                error_on_bury=error,
                span_ctx=span_ctx,
            )

    def release(self, task_id: int, worker: str, *, span_ctx: str | None = None) -> str:
        """Hand back a delivery whose body never ran to completion
        through no fault of its own (the server is stopping): requeued
        at once, no attempt charged.  A report from a worker whose lease
        was already lost is ignored (``"stale"``)."""
        now = self._now()
        with self.db.transaction() as conn:
            row = conn.execute("SELECT * FROM tasks WHERE id = ?", (task_id,)).fetchone()
            if row is None or row["state"] != "leased" or row["worker"] != worker:
                return "stale"
            return self._requeue_or_bury_locked(
                conn,
                row,
                detail=f"released worker={worker};",
                now=now,
                charge_attempt=False,
                error_on_bury="",
                span_ctx=span_ctx,
            )

    def expire_leases(self) -> list[int]:
        """Redeliver every task whose lease deadline passed (missed
        heartbeats).  The expiry charges an attempt — a delivery that
        went dark counts against the retry budget.  Returns the
        affected task ids."""
        now = self._now()
        expired: list[int] = []
        with self.db.transaction() as conn:
            rows = conn.execute(
                "SELECT * FROM tasks WHERE state = 'leased' AND expires_at < ?",
                (now,),
            ).fetchall()
            for row in rows:
                self._log(
                    conn, row["id"], "lease_expired", f"worker={row['worker']} went dark", now
                )
                self._requeue_or_bury_locked(
                    conn,
                    row,
                    detail="lease expired;",
                    now=now,
                    charge_attempt=True,
                    error_on_bury=f"lease expired on attempt {row['attempt']}",
                )
                expired.append(row["id"])
        return expired

    def recover(self, server: str) -> list[int]:
        """Cold-start recovery: requeue every task leased by a process
        that is gone — no execution of it can report back.  Leases of
        live processes (a sibling service on the same data directory)
        are left alone; a lease with no recorded holder counts as dead.
        The crash is not the task's fault: no attempt is charged.
        Returns the recovered task ids."""
        now = self._now()
        recovered: list[int] = []
        with self.db.transaction() as conn:
            rows = conn.execute("SELECT * FROM tasks WHERE state = 'leased'").fetchall()
            for row in rows:
                pid = row["holder_pid"]
                if pid is not None and _pid_alive(pid):
                    continue
                self._log(
                    conn, row["id"], "recovered",
                    f"dead server={row['server']} pid={pid} new={server}", now,
                )
                self._requeue_or_bury_locked(
                    conn,
                    row,
                    detail="recovered;",
                    now=now,
                    charge_attempt=False,
                    error_on_bury="",
                )
                recovered.append(row["id"])
            self._log(conn, None, "recovery", f"server={server} n={len(recovered)}", now)
        return recovered

    # -- control plane --------------------------------------------------
    def cancel(self, task_id: int) -> str:
        """Cancel *task_id*: immediate for queued tasks, deferred
        (``cancel_requested``) for leased ones — the in-flight
        execution cannot be interrupted, but any redelivery path
        finalizes the cancellation instead of requeueing."""
        now = self._now()
        with self.db.transaction() as conn:
            row = conn.execute(
                "SELECT state FROM tasks WHERE id = ?", (task_id,)
            ).fetchone()
            if row is None:
                return "unknown"
            if row["state"] == "queued":
                conn.execute(
                    "UPDATE tasks SET state = 'cancelled', cancel_requested = 1, "
                    "updated_at = ? WHERE id = ?",
                    (now, task_id),
                )
                self._log(conn, task_id, "cancelled", "while queued", now)
                return "cancelled"
            if row["state"] == "leased":
                conn.execute(
                    "UPDATE tasks SET cancel_requested = 1, updated_at = ? WHERE id = ?",
                    (now, task_id),
                )
                self._log(conn, task_id, "cancel_requested", "while leased", now)
                return "cancel_requested"
            return "noop"

    def reprioritize(self, task_id: int, priority: int) -> bool:
        """Change a live task's priority (takes effect at its next
        claim/redelivery).  Returns False for terminal tasks."""
        now = self._now()
        with self.db.transaction() as conn:
            cur = conn.execute(
                "UPDATE tasks SET priority = ?, updated_at = ? "
                "WHERE id = ? AND state IN ('queued', 'leased')",
                (int(priority), now, task_id),
            )
            if cur.rowcount != 1:
                return False
            self._log(conn, task_id, "reprioritized", f"priority={priority}", now)
            return True

    # -- queries --------------------------------------------------------
    def task(self, task_id: int) -> dict[str, Any] | None:
        rows = self.db.query(
            "SELECT id, tenant, name, priority, state, attempt, max_retries, "
            "not_before, cancel_requested, signature, submitted_at, updated_at "
            "FROM tasks WHERE id = ?",
            (task_id,),
        )
        return dict(rows[0]) if rows else None

    def list_tasks(
        self,
        *,
        tenant: str | None = None,
        state: str | None = None,
        limit: int = 100,
    ) -> list[dict[str, Any]]:
        sql = (
            "SELECT id, tenant, name, priority, state, attempt, max_retries "
            "FROM tasks"
        )
        clauses, params = [], []
        if tenant is not None:
            clauses.append("tenant = ?")
            params.append(tenant)
        if state is not None:
            clauses.append("state = ?")
            params.append(state)
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY id LIMIT ?"
        params.append(int(limit))
        return [dict(row) for row in self.db.query(sql, tuple(params))]

    def provenance(self, task_id: int | None = None) -> list[dict[str, Any]]:
        if task_id is None:
            rows = self.db.query("SELECT * FROM provenance ORDER BY seq")
        else:
            rows = self.db.query(
                "SELECT * FROM provenance WHERE task_id = ? ORDER BY seq", (task_id,)
            )
        return [dict(row) for row in rows]

    def outstanding(self) -> int:
        """Tasks not yet in a terminal state (the drain/idle probe)."""
        rows = self.db.query(
            "SELECT COUNT(*) AS n FROM tasks WHERE state IN ('queued', 'leased')"
        )
        return int(rows[0]["n"])

    def span_rows(self) -> list[dict[str, Any]]:
        """The service's spans as start/end rows for
        :func:`repro.runtime.otlp.spans_to_otlp`, rebuilt from
        provenance.  A traced task's ``submitted`` row is an
        instantaneous ``submit`` span (the submission context on the
        task row); a ``leased`` row starts a ``deliver`` span under it
        and the worker's report carrying the same context ends it.  A
        delivery nobody reported on (its process died) has no end row
        and exports as interrupted."""
        rows: list[dict[str, Any]] = []
        for row in self.db.query(
            "SELECT p.task_id, p.event, p.detail, p.at, p.span_ctx, t.name, t.tenant, "
            "t.trace_ctx FROM provenance p JOIN tasks t ON t.id = p.task_id "
            "WHERE t.trace_ctx IS NOT NULL "
            "AND (p.event = 'submitted' OR p.span_ctx IS NOT NULL) ORDER BY p.seq"
        ):
            try:
                submit = TraceContext.from_header(row["trace_ctx"])
                delivery = row["span_ctx"] and TraceContext.from_header(row["span_ctx"])
            except ValueError:
                continue
            event, at = row["event"], row["at"]
            attributes = {"task_id": row["task_id"], "task": row["name"], "tenant": row["tenant"]}
            if event == "submitted":
                rows.append(_start_row(submit, "submit", None, at, attributes))
                rows.append(_end_row(submit, at, "ok"))
            elif event == "leased":
                attributes.update(_detail_fields(row["detail"]))
                rows.append(_start_row(delivery, "deliver", submit.span_id, at, attributes))
            else:
                rows.append(_end_row(delivery, at, _SPAN_STATUS.get(event, "failed")))
        return rows

    def stats(self) -> dict[str, Any]:
        """Snapshot for the metrics surface: per-tenant state counts
        plus the operation counters, a view of the provenance log
        (shaped for :func:`repro.runtime.observability.merge_service_stats`)."""
        tenants: dict[str, dict[str, int]] = {
            name: {} for name in self.tenants()
        }
        for row in self.db.query(
            "SELECT tenant, state, COUNT(*) AS n FROM tasks GROUP BY tenant, state"
        ):
            tenants.setdefault(row["tenant"], {})[row["state"]] = row["n"]
        counters = {
            _COUNTER_EVENTS[row["event"]]: row["n"]
            for row in self.db.query(
                "SELECT event, COUNT(*) AS n FROM provenance GROUP BY event"
            )
            if row["event"] in _COUNTER_EVENTS
        }
        heartbeats = self.db.query("SELECT SUM(heartbeats) AS n FROM tasks")[0]["n"]
        if heartbeats:
            counters["heartbeats"] = heartbeats
        return {"tenants": tenants, "counters": counters}
