"""Durability substrate of the task-queue service.

One sqlite3 file in WAL mode is the whole persistent state: tasks
(each with its lease, if any), results, tenants and provenance.  Every
fact is written once: a lease is columns of its task row, and the
provenance log is the service's one event log — the operation counters
and the service's spans are views of it.  WAL gives the two properties
the service is built on:

* **crash atomicity** — every queue state transition executes inside a
  single ``BEGIN IMMEDIATE`` transaction, so a ``kill -9`` at any
  instant leaves the database at a transaction boundary; a restarted
  server reads a consistent queue out of the WAL and resumes.
* **multi-process access** — clients submit and query from other
  processes through the same file; sqlite's locking (plus a generous
  ``busy_timeout``) serializes writers without a network protocol.

``synchronous=NORMAL`` is the WAL sweet spot: commits survive process
crashes (the failure mode chaos-tested here) without paying a full
fsync per transaction.  The ROADMAP notes sqlite is the stand-in for
the Postgres/remote-db tier of the EMEWS-EQSQL design — the schema and
transaction discipline are the part that transfers.
"""

from __future__ import annotations

import sqlite3
import threading
from pathlib import Path

__all__ = ["Database", "SCHEMA_VERSION"]

SCHEMA_VERSION = 2

_SCHEMA = f"""
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
INSERT OR IGNORE INTO meta (key, value) VALUES ('schema_version', '{SCHEMA_VERSION}');

CREATE TABLE IF NOT EXISTS tenants (
    name       TEXT PRIMARY KEY,
    quota      INTEGER,                     -- max concurrent leases; NULL = unbounded
    weight     REAL NOT NULL DEFAULT 1.0,   -- fair-share weight
    created_at REAL NOT NULL
);

CREATE TABLE IF NOT EXISTS tasks (
    id               INTEGER PRIMARY KEY AUTOINCREMENT,
    tenant           TEXT NOT NULL REFERENCES tenants(name),
    name             TEXT NOT NULL,
    module           TEXT NOT NULL,
    qualname         TEXT NOT NULL,
    payload          BLOB NOT NULL,          -- pickled (args, kwargs)
    signature        TEXT NOT NULL UNIQUE,   -- lineage signature: the result dedup key
    priority         INTEGER NOT NULL DEFAULT 0,
    state            TEXT NOT NULL DEFAULT 'queued'
                     CHECK (state IN ('queued', 'leased', 'done', 'failed', 'cancelled')),
    attempt          INTEGER NOT NULL DEFAULT 0,
    max_retries      INTEGER NOT NULL DEFAULT 2,
    not_before       REAL NOT NULL DEFAULT 0,  -- redelivery backoff gate
    cancel_requested INTEGER NOT NULL DEFAULT 0,
    submitted_at     REAL NOT NULL,
    updated_at       REAL NOT NULL,
    trace_ctx        TEXT,                    -- traceparent header of the submission
    -- the lease: set by claim, cleared by the UPDATE that leaves 'leased'
    worker           TEXT,
    server           TEXT,                    -- server incarnation id
    holder_pid       INTEGER,                 -- pid of the claiming process
    expires_at       REAL,
    heartbeats       INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS idx_tasks_claim
    ON tasks (state, tenant, priority DESC, id);

CREATE TABLE IF NOT EXISTS results (
    signature   TEXT PRIMARY KEY,            -- idempotency: one result per signature
    task_id     INTEGER NOT NULL,
    status      TEXT NOT NULL CHECK (status IN ('ok', 'error')),
    payload     BLOB,
    worker      TEXT,
    attempt     INTEGER NOT NULL,
    recorded_at REAL NOT NULL
);

CREATE TABLE IF NOT EXISTS provenance (
    seq     INTEGER PRIMARY KEY AUTOINCREMENT,
    task_id INTEGER,
    event   TEXT NOT NULL,
    detail  TEXT NOT NULL DEFAULT '',
    at      REAL NOT NULL,
    span_ctx TEXT                    -- traceparent of the delivery span it starts or ends
);

-- Store-segment prefixes of live server incarnations, so a cold start
-- can sweep exactly the /dev/shm + spill debris of dead incarnations
-- (prefix-scoped: concurrent servers never touch each other's rows).
CREATE TABLE IF NOT EXISTS store_prefixes (
    prefix        TEXT PRIMARY KEY,
    pid           INTEGER NOT NULL,
    server        TEXT NOT NULL,
    registered_at REAL NOT NULL
);
"""

#: Columns later schemas added to existing tables, for :meth:`Database._migrate`.
_ADDED_COLUMNS = {
    "tasks": (
        "trace_ctx TEXT",
        "worker TEXT",
        "server TEXT",
        "holder_pid INTEGER",
        "expires_at REAL",
        "heartbeats INTEGER NOT NULL DEFAULT 0",
    ),
    "provenance": ("span_ctx TEXT",),
}


class Database:
    """One WAL-mode sqlite file with per-thread connections.

    sqlite connections are not thread-safe, but the service touches the
    database from many threads (workers, sweeper, heartbeater, the
    serving loop); each thread gets its own connection lazily, with the
    pragmas applied once per connection.  ``transaction()`` is the only
    write path — it opens ``BEGIN IMMEDIATE`` (taking the write lock up
    front so a transition never deadlocks halfway through its reads)
    and commits or rolls back atomically.
    """

    def __init__(self, path: str | Path, *, busy_timeout_s: float = 30.0):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._busy_timeout_ms = int(busy_timeout_s * 1000)
        self._local = threading.local()
        self._conns: list[sqlite3.Connection] = []
        self._conns_lock = threading.Lock()
        self.closed = False
        # Schema application runs in autocommit: every statement is
        # idempotent (IF NOT EXISTS / OR IGNORE), so a crash mid-way
        # simply re-applies on the next open.
        conn = self.connect()
        conn.executescript(_SCHEMA)
        self._migrate(conn)

    @staticmethod
    def _migrate(conn: sqlite3.Connection) -> None:
        """In-place column additions for databases created by older
        code (``CREATE TABLE IF NOT EXISTS`` never alters an existing
        table).  Additive and idempotent, like the schema itself.  The
        ``counters`` and ``leases`` tables of schema 1 are left alone
        and never read; a task such a database shows ``leased`` has no
        recorded holder, so recovery treats it as dead."""
        added = False
        for table, columns in _ADDED_COLUMNS.items():
            have = {row[1] for row in conn.execute(f"PRAGMA table_info({table})")}
            for column in columns:
                if column.split()[0] not in have:
                    conn.execute(f"ALTER TABLE {table} ADD COLUMN {column}")
                    added = True
        if added:
            conn.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                (str(SCHEMA_VERSION),),
            )

    # -- connections ----------------------------------------------------
    def connect(self) -> sqlite3.Connection:
        """This thread's connection (created on first use)."""
        if self.closed:
            raise sqlite3.ProgrammingError("database is closed")
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = sqlite3.connect(
                str(self.path),
                timeout=self._busy_timeout_ms / 1000.0,
                isolation_level=None,  # explicit BEGIN/COMMIT only
                check_same_thread=False,
            )
            conn.row_factory = sqlite3.Row
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(f"PRAGMA busy_timeout={self._busy_timeout_ms}")
            conn.execute("PRAGMA foreign_keys=ON")
            self._local.conn = conn
            with self._conns_lock:
                self._conns.append(conn)
        return conn

    # -- transactions ---------------------------------------------------
    def transaction(self) -> "_Transaction":
        """``with db.transaction() as conn:`` — one atomic state
        transition.  ``BEGIN IMMEDIATE`` acquires the write lock at
        entry; on exception the transaction rolls back and the error
        propagates."""
        return _Transaction(self.connect())

    def query(self, sql: str, params: tuple = ()) -> list[sqlite3.Row]:
        """Read-only convenience: fetch all rows outside a write
        transaction (WAL readers never block the writer)."""
        return self.connect().execute(sql, params).fetchall()

    # -- maintenance ----------------------------------------------------
    def checkpoint(self, truncate: bool = True) -> None:
        """Flush the WAL into the main database file (the drain path's
        final flush)."""
        mode = "TRUNCATE" if truncate else "PASSIVE"
        self.connect().execute(f"PRAGMA wal_checkpoint({mode})")

    def close(self) -> None:
        with self._conns_lock:
            conns, self._conns = self._conns, []
            self.closed = True
        for conn in conns:
            try:
                conn.close()
            except sqlite3.Error:
                pass


class _Transaction:
    def __init__(self, conn: sqlite3.Connection):
        self._conn = conn

    def __enter__(self) -> sqlite3.Connection:
        self._conn.execute("BEGIN IMMEDIATE")
        return self._conn

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self._conn.execute("COMMIT")
        else:
            try:
                self._conn.execute("ROLLBACK")
            except sqlite3.Error:
                pass
