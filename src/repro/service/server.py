"""The long-running queue server: durability + execution + janitors.

:class:`QueueService` glues the pieces together around one data
directory::

    data_dir/
      queue.db      the WAL-mode queue (repro.service.db); its provenance
                    log is also the service's span log
      traces/       one OTLP document per drained incarnation's runtime
      flightrec/    flight-recorder dumps (SIGTERM, kill, abort)

Lifecycle — both exits are first-class, chaos-tested paths:

* **Graceful drain** (``SIGTERM`` or :meth:`drain`): stop leasing,
  finish in-flight deliveries, shut the runtime down, flush the WAL
  into the main file.
* **Crash** (``kill -9``): nothing runs; the next :meth:`start` is the
  recovery path.  Cold-start recovery happens *before* any new work is
  leased: every task the WAL shows leased by a process that is gone is
  requeued (the dead incarnation can never report back), and
  shared-memory segments of dead incarnations are swept via the
  store's prefix-scoped orphan logic — each incarnation registers its
  store prefix durably.  Both go by the recorded pid, so two live
  services on one data directory never take each other's leases or
  collect each other's segments.
* **Fail-stop** (a task body raises ``SystemExit`` or another
  ``BaseException``, killing the embedded runtime): the pool stops
  claiming, :meth:`serve_forever` drains and returns the exception,
  and the tasks still queued wait for the next incarnation.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import signal
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Mapping, Optional

from repro.runtime import flightrec
from repro.runtime import otlp
from repro.runtime.config import RuntimeConfig
from repro.runtime.engine import Runtime
from repro.runtime.store import sweep_prefix
from repro.service.db import Database
from repro.service.queue import DurableQueue, _pid_alive
from repro.service.worker import ServiceWorkerPool

_log = logging.getLogger("repro.service.server")

__all__ = ["QueueService", "ServiceConfig", "export_service_otlp"]

QUEUE_DB = "queue.db"
TRACES_DIR = "traces"


@dataclasses.dataclass(frozen=True)
class ServiceConfig:
    """Validated configuration of one :class:`QueueService`."""

    data_dir: str
    workers: int = 2
    #: Execution backend of the embedded runtime ("threads" or
    #: "processes" — real worker processes with the shared-memory
    #: data plane).
    backend: str = "threads"
    #: Lease duration; a delivery that misses heartbeats for this long
    #: is presumed dead and redelivered.  Leases are extended every
    #: ``lease_timeout / 3`` and swept every ``lease_timeout / 2``.
    lease_timeout: float = 5.0
    #: Worker idle poll (the sqlite file is the signalling channel).
    poll_interval: float = 0.05
    default_max_retries: int = 2
    retry_backoff: float = 0.05
    retry_backoff_cap: float = 2.0
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.lease_timeout <= 0:
            raise ValueError("lease_timeout must be > 0")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be > 0")


def export_service_otlp(
    data_dir: str | os.PathLike,
    *,
    resource: Optional[Mapping[str, Any]] = None,
) -> dict[str, Any]:
    """The full OTLP document of one service data directory: the
    ``submit``/``deliver`` spans rebuilt from the queue's provenance
    log, merged with the OTLP document each drained server incarnation
    saved of its runtime trace.  A ``trace-*.json`` that is unreadable
    or not an OTLP document is skipped; a directory without a queue
    yields no service spans and is left untouched."""
    data_dir = Path(data_dir)
    documents = []
    if (data_dir / QUEUE_DB).exists():
        db = Database(data_dir / QUEUE_DB)
        try:
            rows = DurableQueue(db).span_rows()
        finally:
            db.close()
        documents.append(otlp.spans_to_otlp(rows, resource=resource))
    for path in sorted((data_dir / TRACES_DIR).glob("trace-*.json")):
        try:
            with open(path, encoding="utf-8") as fh:
                document = json.load(fh)
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(document, dict) and isinstance(document.get("resourceSpans"), list):
            documents.append(document)
    return otlp.merge_otlp(*documents)


class QueueService:
    """One server incarnation over a data directory."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.data_dir = Path(config.data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.server_id = f"{os.getpid():x}-{uuid.uuid4().hex[:8]}"
        self.db = Database(self.data_dir / QUEUE_DB)
        self.queue = DurableQueue(
            self.db,
            default_max_retries=config.default_max_retries,
            retry_backoff=config.retry_backoff,
            retry_backoff_cap=config.retry_backoff_cap,
            jitter_seed=config.jitter_seed,
        )
        self.runtime: Runtime | None = None
        self.pool: ServiceWorkerPool | None = None
        self.recovery: dict[str, Any] = {}
        self._sweeper: threading.Thread | None = None
        self._stop = threading.Event()
        self._terminate = threading.Event()
        self.started = False
        self.stopped = False

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "QueueService":
        """Recover, then serve.  Recovery runs before the first lease:
        a restarted server resumes the WAL's queue exactly where the
        dead incarnation left it."""
        if self.started:
            return self
        self.started = True
        self.recovery = self._recover_cold_start()
        cfg = self.config
        self.runtime = Runtime(
            config=RuntimeConfig(
                executor="threads",
                backend=cfg.backend,
                max_workers=cfg.workers,
                name=f"svc-{self.server_id}",
                flightrec_dir=str(self.data_dir / "flightrec"),
            )
        )
        self._register_store_prefix()
        self.pool = ServiceWorkerPool(
            self.queue,
            self.runtime,
            server_id=self.server_id,
            n_workers=cfg.workers,
            lease_timeout=cfg.lease_timeout,
            poll_interval=cfg.poll_interval,
        )
        self.pool.start()
        self._sweeper = threading.Thread(
            target=self._sweep_loop, name="svc-sweeper", daemon=True
        )
        self._sweeper.start()
        _log.info(
            "service started server_id=%s data_dir=%s workers=%d backend=%s recovered=%d",
            self.server_id,
            self.data_dir,
            cfg.workers,
            cfg.backend,
            len(self.recovery.get("requeued_tasks", ())),
        )
        return self

    def _recover_cold_start(self) -> dict[str, Any]:
        requeued = self.queue.recover(self.server_id)
        swept_prefixes: list[str] = []
        swept_files = 0
        rows = self.db.query("SELECT prefix, pid FROM store_prefixes")
        for row in rows:
            if _pid_alive(row["pid"]):
                continue  # a live sibling service: not ours to sweep
            swept_files += sweep_prefix(row["prefix"])
            swept_prefixes.append(row["prefix"])
        if swept_prefixes:
            with self.db.transaction() as conn:
                for prefix in swept_prefixes:
                    conn.execute(
                        "DELETE FROM store_prefixes WHERE prefix = ?", (prefix,)
                    )
        return {
            "requeued_tasks": requeued,
            "swept_prefixes": swept_prefixes,
            "swept_segment_files": swept_files,
        }

    def _register_store_prefix(self) -> None:
        assert self.runtime is not None
        prefix = self.runtime.store.prefix  # forces store creation
        with self.db.transaction() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO store_prefixes "
                "(prefix, pid, server, registered_at) VALUES (?, ?, ?, ?)",
                (prefix, os.getpid(), self.server_id, time.time()),
            )

    def _sweep_loop(self) -> None:
        while not self._stop.wait(self.config.lease_timeout / 2.0):
            try:
                self.queue.expire_leases()
            except Exception:  # noqa: BLE001 - next sweep retries
                pass

    # -- shutdown -------------------------------------------------------
    def drain(self, timeout: float | None = 30.0) -> bool:
        """Graceful exit: stop leasing, finish in-flight deliveries,
        shut the runtime (and its store) down, flush the WAL."""
        if self.stopped:
            return True
        self.stopped = True
        ok = True
        if self.pool is not None:
            ok = self.pool.drain(timeout)
        self._stop.set()
        if self._sweeper is not None:
            self._sweeper.join(timeout)
        if self.runtime is not None:
            self._save_runtime_trace()
            prefix = self.runtime._store.prefix if self.runtime._store else None
            # A killed runtime has nothing left to drain: waiting on it
            # would re-raise the kill.
            self.runtime.shutdown(wait=self.runtime.interruption() is None)
            if prefix is not None:
                # Clean exit: this incarnation's segments are gone, so
                # drop its prefix registration.
                with self.db.transaction() as conn:
                    conn.execute(
                        "DELETE FROM store_prefixes WHERE prefix = ?", (prefix,)
                    )
        try:
            self.db.checkpoint(truncate=True)
        except Exception:  # noqa: BLE001 - the WAL replays on next open
            pass
        self.db.close()
        _log.info("service drained server_id=%s clean=%s", self.server_id, ok)
        return ok

    stop = drain

    def _save_runtime_trace(self) -> None:
        """Persist this incarnation's runtime trace as an OTLP document
        under ``traces/trace-<server_id>.json``, which
        :func:`export_service_otlp` merges with the service's spans.
        ``wall_t0`` anchors the trace's monotonic timestamps to the wall
        clock; the resource names the server and its pid."""
        assert self.runtime is not None
        try:
            document = otlp.trace_to_otlp(
                self.runtime.trace(),
                wall_t0=time.time() - self.runtime._now(),
                resource={
                    "service.name": "repro-service-runtime",
                    "repro.server_id": self.server_id,
                    "repro.pid": os.getpid(),
                },
            )
            traces_dir = self.data_dir / TRACES_DIR
            traces_dir.mkdir(parents=True, exist_ok=True)
            otlp.save_otlp(document, traces_dir / f"trace-{self.server_id}.json")
        except Exception as exc:  # noqa: BLE001 - drain must proceed
            _log.warning(
                "failed to save runtime trace server_id=%s error=%r", self.server_id, exc
            )

    def install_signal_handlers(self) -> None:
        """``SIGTERM``/``SIGINT`` → leave :meth:`serve_forever`, which
        then drains.  A no-op off the main thread (embedded servers
        are stopped via :meth:`drain` or ``until_idle`` instead)."""

        def handler(signum, frame):  # noqa: ARG001
            # Black box first: dump every live flight recorder before
            # the drain starts tearing state down.
            try:
                flightrec.dump_all(
                    f"signal {signum}", directory=self.data_dir / "flightrec"
                )
            except Exception:  # noqa: BLE001 - termination must proceed
                pass
            self._terminate.set()

        try:
            signal.signal(signal.SIGTERM, handler)
            signal.signal(signal.SIGINT, handler)
        except ValueError:  # not the main thread
            pass

    def serve_forever(
        self, *, until_idle: bool = False, tick: float = 0.1
    ) -> BaseException | None:
        """Block until terminated (or, with *until_idle*, until the
        queue is empty and nothing is in flight), then drain.

        Fail-stop: when a task body kills the embedded runtime (a
        ``SystemExit`` or other ``BaseException``), the pool stops
        claiming and this returns that exception after draining; the
        queued tasks wait for the next incarnation.  Returns None after
        a normal exit."""
        assert self.pool is not None and self.runtime is not None, "call start() first"
        killed = None
        while not self._terminate.wait(tick):
            killed = self.runtime.interruption()
            if killed is not None:
                break
            if until_idle and self.queue.outstanding() == 0 and self.pool.in_flight == 0:
                break
        self.drain()
        return killed

    # -- introspection --------------------------------------------------
    def status(self) -> dict[str, Any]:
        stats = self.queue.stats()
        return {
            "server_id": self.server_id,
            "data_dir": str(self.data_dir),
            "outstanding": self.queue.outstanding(),
            "in_flight": self.pool.in_flight if self.pool is not None else 0,
            "tenants": stats["tenants"],
            "counters": stats["counters"],
            "recovery": self.recovery,
        }
