"""Tests of the service database layer: WAL durability settings,
transactional discipline, per-thread connections, reopen semantics."""

from __future__ import annotations

import sqlite3
import threading

import pytest

from repro.service.db import SCHEMA_VERSION, Database


@pytest.fixture()
def db(tmp_path):
    database = Database(tmp_path / "queue.db")
    yield database
    database.close()


def test_schema_applied_with_version(db):
    rows = db.query("SELECT value FROM meta WHERE key = 'schema_version'")
    assert rows and int(rows[0]["value"]) == SCHEMA_VERSION
    tables = {
        row["name"]
        for row in db.query("SELECT name FROM sqlite_master WHERE type = 'table'")
    }
    assert {
        "meta", "tenants", "tasks", "results", "provenance", "store_prefixes",
    } == tables - {"sqlite_sequence"}


def test_wal_mode_and_synchronous_normal(db):
    assert db.query("PRAGMA journal_mode")[0][0] == "wal"
    assert db.query("PRAGMA synchronous")[0][0] == 1  # NORMAL


def log_row(conn, event, at=0.0):
    conn.execute("INSERT INTO provenance (event, at) VALUES (?, ?)", (event, at))


def events(db):
    return [row["event"] for row in db.query("SELECT event FROM provenance ORDER BY seq")]


def test_transaction_commits(db):
    with db.transaction() as conn:
        log_row(conn, "x")
    assert events(db) == ["x"]


def test_transaction_rolls_back_on_error(db):
    with pytest.raises(RuntimeError):
        with db.transaction() as conn:
            log_row(conn, "x")
            raise RuntimeError("abort")
    assert events(db) == []


def test_transaction_is_atomic_across_statements(db):
    """A multi-statement transition aborts as a unit: no partial edge."""
    with db.transaction() as conn:
        conn.execute(
            "INSERT INTO tenants (name, quota, weight, created_at) "
            "VALUES ('t', NULL, 1.0, 0)"
        )
        conn.execute(
            "INSERT INTO tasks (tenant, name, module, qualname, payload, signature, "
            "priority, state, attempt, max_retries, not_before, submitted_at, "
            "updated_at) VALUES ('t', 'n', 'm', 'q', X'', 'sig-a', 0, 'queued', 0, "
            "2, 0, 0, 0)"
        )
    with pytest.raises(sqlite3.IntegrityError):
        with db.transaction() as conn:
            conn.execute("UPDATE tasks SET state = 'leased' WHERE signature = 'sig-a'")
            # duplicate signature violates the UNIQUE constraint
            conn.execute(
                "INSERT INTO tasks (tenant, name, module, qualname, payload, "
                "signature, priority, state, attempt, max_retries, not_before, "
                "submitted_at, updated_at) VALUES ('t', 'n', 'm', 'q', X'', 'sig-a', "
                "0, 'queued', 0, 2, 0, 0, 0)"
            )
    row = db.query("SELECT state FROM tasks WHERE signature = 'sig-a'")[0]
    assert row["state"] == "queued"  # the UPDATE rolled back too


def test_per_thread_connections(db):
    conns = {}

    def grab(key):
        conns[key] = db.connect()

    main = db.connect()
    thread = threading.Thread(target=grab, args=("other",))
    thread.start()
    thread.join()
    assert conns["other"] is not main
    assert db.connect() is main  # same thread, same connection


def test_reopen_preserves_data(tmp_path):
    first = Database(tmp_path / "queue.db")
    with first.transaction() as conn:
        log_row(conn, "persist", at=7.0)
    first.close()
    # Reopening re-applies the idempotent schema and sees the data.
    second = Database(tmp_path / "queue.db")
    try:
        assert second.query("SELECT event, at FROM provenance")[0]["at"] == 7.0
        assert (
            int(second.query("SELECT value FROM meta WHERE key = 'schema_version'")[0]["value"])
            == SCHEMA_VERSION
        )
    finally:
        second.close()


def test_checkpoint_truncates_wal(db, tmp_path):
    with db.transaction() as conn:
        for i in range(50):
            log_row(conn, f"c{i}")
    wal = tmp_path / "queue.db-wal"
    assert wal.exists() and wal.stat().st_size > 0
    db.checkpoint(truncate=True)
    assert wal.stat().st_size == 0


def test_concurrent_writers_serialize(db):
    """BEGIN IMMEDIATE + busy_timeout: concurrent transactions from
    many threads all land, none lost, none deadlocked."""
    n_threads, per_thread = 4, 25
    errors = []

    def hammer(k):
        try:
            for _ in range(per_thread):
                with db.transaction() as conn:
                    log_row(conn, "hit")
        except Exception as exc:  # noqa: BLE001 - collected for the assert
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(k,)) for k in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert events(db) == ["hit"] * (n_threads * per_thread)


#: The tables of schema 1 that later schemas changed: tasks without the
#: lease columns, a leases table and a counters table of their own.
_SCHEMA_1 = """
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
INSERT INTO meta VALUES ('schema_version', '1');
CREATE TABLE tenants (
    name TEXT PRIMARY KEY, quota INTEGER, weight REAL NOT NULL DEFAULT 1.0,
    created_at REAL NOT NULL
);
CREATE TABLE tasks (
    id INTEGER PRIMARY KEY AUTOINCREMENT, tenant TEXT NOT NULL, name TEXT NOT NULL,
    module TEXT NOT NULL, qualname TEXT NOT NULL, payload BLOB NOT NULL,
    signature TEXT NOT NULL UNIQUE, priority INTEGER NOT NULL DEFAULT 0,
    state TEXT NOT NULL DEFAULT 'queued', attempt INTEGER NOT NULL DEFAULT 0,
    max_retries INTEGER NOT NULL DEFAULT 2, not_before REAL NOT NULL DEFAULT 0,
    cancel_requested INTEGER NOT NULL DEFAULT 0, submitted_at REAL NOT NULL,
    updated_at REAL NOT NULL, trace_ctx TEXT
);
CREATE TABLE leases (
    task_id INTEGER PRIMARY KEY, worker TEXT NOT NULL, server TEXT NOT NULL,
    acquired_at REAL NOT NULL, expires_at REAL NOT NULL, heartbeat_at REAL NOT NULL
);
CREATE TABLE provenance (
    seq INTEGER PRIMARY KEY AUTOINCREMENT, task_id INTEGER, event TEXT NOT NULL,
    detail TEXT NOT NULL DEFAULT '', at REAL NOT NULL
);
CREATE TABLE counters (name TEXT PRIMARY KEY, value INTEGER NOT NULL DEFAULT 0);
INSERT INTO tenants VALUES ('default', NULL, 1.0, 0);
INSERT INTO tasks (tenant, name, module, qualname, payload, signature, state,
    submitted_at, updated_at) VALUES ('default', 'add', 'repro.service.demo', 'add',
    X'', 'sig-old', 'leased', 0, 0);
INSERT INTO leases VALUES (1, 'old/w0', 'old', 0, 1e12, 0);
INSERT INTO provenance (task_id, event, at) VALUES (1, 'submitted', 0), (1, 'leased', 0);
INSERT INTO counters VALUES ('submissions', 5), ('claims', 9);
"""


def test_schema_1_database_opens_and_recovers(tmp_path):
    """A data directory written before the lease columns: the columns
    are added, the leftover ``counters``/``leases`` tables are ignored,
    and the task left leased (no recorded holder) is recovered."""
    from repro.service.queue import DurableQueue

    path = tmp_path / "queue.db"
    old = sqlite3.connect(path)
    old.executescript(_SCHEMA_1)
    old.close()
    db = Database(path)
    try:
        cols = {row[1] for row in db.query("PRAGMA table_info(tasks)")}
        assert {"worker", "server", "holder_pid", "expires_at", "heartbeats"} <= cols
        assert db.query("SELECT value FROM meta WHERE key = 'schema_version'")[0][0] == str(
            SCHEMA_VERSION
        )
        queue = DurableQueue(db)
        assert queue.stats()["counters"] == {"submissions": 1, "claims": 1}
        assert queue.recover("new") == [1]
        assert queue.task(1)["state"] == "queued"
        assert queue.claim(worker="new/w0", server="new", lease_timeout=5.0).id == 1
    finally:
        db.close()
