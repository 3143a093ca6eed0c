"""Durable multi-tenant task-queue service.

The single-process :class:`~repro.runtime.engine.Runtime` lives and
dies with one Python interpreter.  This package is the persistent
layer above it (ROADMAP item 1, the OSPREY / EMEWS-EQSQL shape): a
long-running server fronting a sqlite3-in-WAL-mode priority queue
that survives client, worker *and server* crashes without losing or
double-completing work.

Layout
------
:mod:`repro.service.db`
    The durability substrate: WAL-mode sqlite, per-thread connections,
    single-transaction state transitions.  Each fact is written once:
    leases are columns of the task row, and the provenance log is the
    one event log the counters and spans are views of.
:mod:`repro.service.queue`
    :class:`DurableQueue` — submit / claim-under-lease / heartbeat /
    complete / fail / cancel / reprioritize, multi-tenant fair-share
    with quotas, lease-expiry redelivery with the runtime's backoff
    machinery, idempotent result recording keyed by task signatures.
:mod:`repro.service.worker`
    Worker pool pulling leased tasks into an embedded ``Runtime``;
    fail-stop when a task body kills that runtime.
:mod:`repro.service.server`
    :class:`QueueService` — owns db + runtime + workers + sweeper,
    graceful drain on ``SIGTERM``, cold-start crash recovery;
    ``export_service_otlp`` exports a data directory's spans.
:mod:`repro.service.client`
    :class:`ServiceClient` — the submit/query/cancel/reprioritize API
    (works from any process; the sqlite file is the wire).
:mod:`repro.service.demo`
    Importable demo tasks driven by ``repro submit``, the benchmark's
    service workload and the chaos scenarios (``tests/service/chaos.py``).
"""

from repro.service.client import ServiceClient, ServiceTaskError
from repro.service.db import Database
from repro.service.queue import ClaimedTask, DurableQueue
from repro.service.server import QueueService, ServiceConfig

__all__ = [
    "ClaimedTask",
    "Database",
    "DurableQueue",
    "QueueService",
    "ServiceClient",
    "ServiceConfig",
    "ServiceTaskError",
]
