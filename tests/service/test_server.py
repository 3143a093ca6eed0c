"""Tests of the queue server lifecycle: cold-start recovery, store
prefix hygiene across concurrent services, drain, sweeper, metrics."""

from __future__ import annotations

import pickle
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.service.client import ServiceClient
from repro.service.db import Database
from repro.service.queue import DurableQueue
from repro.service.server import QueueService, ServiceConfig, _pid_alive

DEMO = "repro.service.demo"


def exit_3():
    """A task body that exits its interpreter."""
    sys.exit(3)


def make_service(data_dir, **kw):
    kw.setdefault("workers", 2)
    kw.setdefault("lease_timeout", 3.0)
    kw.setdefault("poll_interval", 0.01)
    return QueueService(ServiceConfig(data_dir=str(data_dir), **kw))


def test_config_validates():
    with pytest.raises(ValueError):
        ServiceConfig(data_dir="x", workers=0)
    with pytest.raises(ValueError):
        ServiceConfig(data_dir="x", lease_timeout=0.0)
    with pytest.raises(ValueError):
        ServiceConfig(data_dir="x", poll_interval=0.0)


def test_serve_submit_result_roundtrip(tmp_path):
    service = make_service(tmp_path / "data").start()
    try:
        with ServiceClient(tmp_path / "data") as client:
            task_id = client.submit(f"{DEMO}:add", 20, 22)
            assert client.result(task_id, timeout=20) == 42
    finally:
        service.drain(timeout=10)


def test_until_idle_serves_backlog_then_exits(tmp_path):
    with ServiceClient(tmp_path / "data") as client:
        ids = [client.submit(f"{DEMO}:add", i, i, key=f"k{i}") for i in range(4)]
    service = make_service(tmp_path / "data").start()
    t0 = time.monotonic()
    service.serve_forever(until_idle=True, tick=0.02)
    assert time.monotonic() - t0 < 30
    with ServiceClient(tmp_path / "data") as client:
        assert client.wait_all(ids, timeout=5) == {
            task_id: 2 * i for i, task_id in enumerate(ids)
        }


def test_cold_start_recovery_requeues_leased(tmp_path):
    """Leases left behind by a dead incarnation (simulated: claimed
    but never served) are requeued before the new server leases."""
    data = tmp_path / "data"
    data.mkdir()
    db = Database(data / "queue.db")
    queue = DurableQueue(db)
    task_id = queue.submit(
        tenant="default", name="add", module=DEMO, qualname="add",
        payload=pickle.dumps(((1, 2), {})), signature="sig-dead",
    )
    queue.claim(worker="dead/w0", server="dead", lease_timeout=3600.0)
    with db.transaction() as conn:
        # the claim was this (live) process's: make its holder a dead
        # pid, 2**22+5 being above linux's default pid_max
        conn.execute("UPDATE tasks SET holder_pid = ? WHERE id = ?", (2**22 + 5, task_id))
    db.close()

    service = make_service(data).start()
    try:
        assert service.recovery["requeued_tasks"] == [task_id]
        with ServiceClient(data) as client:
            assert client.result(task_id, timeout=20) == 3
            assert client.status(task_id)["attempt"] == 0  # crash not charged
    finally:
        service.drain(timeout=10)


def test_clean_drain_unregisters_prefix_and_flushes_wal(tmp_path):
    data = tmp_path / "data"
    service = make_service(data).start()
    prefix = service.runtime.store.prefix
    rows = service.db.query("SELECT prefix, pid FROM store_prefixes")
    assert [r["prefix"] for r in rows] == [prefix]
    service.drain(timeout=10)
    db = Database(data / "queue.db")
    try:
        assert db.query("SELECT prefix FROM store_prefixes") == []
    finally:
        db.close()
    assert not list(Path("/dev/shm").glob(f"{prefix}*"))


def test_dead_prefix_swept_on_cold_start(tmp_path):
    """A prefix registered by a dead pid is swept — shm and spill —
    on the next start."""
    data = tmp_path / "data"
    data.mkdir()
    (data / "spill").mkdir()
    from multiprocessing import shared_memory

    dead_prefix = "rsdeadbeef"
    seg = shared_memory.SharedMemory(
        create=True, size=1024, name=f"{dead_prefix}s0"
    )
    seg.buf[:4] = b"left"
    seg.close()
    spill = data / "spill" / f"repro-store-{dead_prefix}"
    spill.mkdir()
    (spill / "orphan.bin").write_bytes(b"x" * 64)

    db = Database(data / "queue.db")
    with db.transaction() as conn:
        # pid 2**22+5 is above linux's default pid_max: guaranteed dead
        conn.execute(
            "INSERT INTO store_prefixes (prefix, pid, server, registered_at) "
            "VALUES (?, ?, 'dead', 0)",
            (dead_prefix, 2**22 + 5),
        )
    db.close()

    service = make_service(data).start()
    try:
        assert dead_prefix in service.recovery["swept_prefixes"]
        assert service.recovery["swept_segment_files"] >= 2
        assert not list(Path("/dev/shm").glob(f"{dead_prefix}*"))
        assert not spill.exists()
        assert service.db.query(
            "SELECT prefix FROM store_prefixes WHERE prefix = ?", (dead_prefix,)
        ) == []
    finally:
        service.drain(timeout=10)


def test_concurrent_services_do_not_sweep_each_other(tmp_path):
    """Two live services over the same data directory (same queue.db,
    same spill root): each one's cold start sees the other's prefix
    registration with a live pid and leaves it alone."""
    data = tmp_path / "data"
    a = make_service(data).start()
    try:
        a_prefix = a.runtime.store.prefix
        # put something in A's store so a wrongful sweep would bite
        ref = a.runtime.put(np.ones(1024))
        b = make_service(data).start()
        try:
            assert a_prefix not in b.recovery["swept_prefixes"]
            assert b.recovery["swept_segment_files"] == 0
            # A's segments and data are untouched
            assert np.array_equal(a.runtime.get(ref), np.ones(1024))
            prefixes = {
                r["prefix"] for r in b.db.query("SELECT prefix FROM store_prefixes")
            }
            assert {a_prefix, b.runtime.store.prefix} <= prefixes
        finally:
            b.drain(timeout=10)
        # B's clean exit removed only its own registration
        rows = a.db.query("SELECT prefix FROM store_prefixes")
        assert [r["prefix"] for r in rows] == [a_prefix]
        assert np.array_equal(a.runtime.get(ref), np.ones(1024))
    finally:
        a.drain(timeout=10)


def test_second_service_does_not_steal_live_leases(tmp_path):
    """A second live service on the data directory leaves the first
    one's in-flight lease alone: the body runs once, nothing is
    recovered or redelivered."""
    data = tmp_path / "data"
    marker = tmp_path / "marker"
    a = make_service(data, workers=1).start()
    try:
        with ServiceClient(data) as client:
            task_id = client.submit(
                f"{DEMO}:wait_for_marker_then_append",
                str(tmp_path / "effects.txt"), "once", str(marker),
            )
            deadline = time.monotonic() + 20
            while client.status(task_id)["state"] != "leased":
                assert time.monotonic() < deadline, "A never leased the task"
                time.sleep(0.01)
            b = make_service(data).start()
            try:
                requeued = b.recovery["requeued_tasks"]
                state = client.status(task_id)["state"]
                marker.touch()
                value = client.result(task_id, timeout=20)
            finally:
                marker.touch()
                b.drain(timeout=10)
            counters = client.counts()["counters"]
    finally:
        a.drain(timeout=10)
    assert (requeued, state, value) == ([], "leased", "once")
    assert (tmp_path / "effects.txt").read_text() == "once\n"
    assert counters["claims"] == 1
    assert not {"recoveries", "redeliveries", "duplicates_discarded"} & set(counters)


def test_sweeper_expires_dark_leases(tmp_path):
    """The background sweeper redelivers a lease whose holder went
    dark: here the test's own claim, which never heartbeats (its live
    pid keeps cold-start recovery away from it)."""
    data = tmp_path / "data"
    with ServiceClient(data) as client:
        task_id = client.submit(f"{DEMO}:add", 1, 2)
        dark = client.queue.claim(worker="dark/w0", server="dark", lease_timeout=0.3)
        assert dark.id == task_id
        service = make_service(data, lease_timeout=0.3, workers=1).start()
        try:
            assert service.recovery["requeued_tasks"] == []
            assert client.result(task_id, timeout=30) == 3
            counters = client.counts()["counters"]
            row = client.status(task_id)
        finally:
            service.drain(timeout=10)
    assert counters["lease_expirations"] == 1
    assert row["attempt"] == 1  # the expiry charged the dark delivery


def test_a_body_that_exits_stops_the_service_not_the_queue(tmp_path):
    """Fail-stop: a body's ``SystemExit`` kills the embedded runtime,
    so the pool stops claiming and ``serve_forever`` returns the exit.
    A job queued behind it is never charged an attempt, and the next
    service on the data directory completes it."""
    data = tmp_path / "data"
    with ServiceClient(data) as client:
        killer = client.submit("tests.service.test_server:exit_3", max_retries=0)
        behind = client.submit(f"{DEMO}:add", 2, 3, max_retries=1)
    service = make_service(data, workers=1).start()
    killed = service.serve_forever(until_idle=True, tick=0.02)
    assert isinstance(killed, SystemExit) and killed.code == 3
    with ServiceClient(data) as client:
        assert client.status(killer)["state"] == "failed"
        assert client.status(behind)["state"] == "queued"
        assert client.status(behind)["attempt"] == 0
        service = make_service(data, workers=1).start()
        try:
            assert client.result(behind, timeout=20) == 5
            assert client.status(behind)["attempt"] == 0
        finally:
            service.drain(timeout=10)


def test_metrics_merge_exposes_tenant_gauges(tmp_path):
    data = tmp_path / "data"
    service = make_service(data).start()
    try:
        with ServiceClient(data) as client:
            client.ensure_tenant("alpha")
            task_id = client.submit(f"{DEMO}:add", 1, 1, tenant="alpha")
            client.result(task_id, timeout=20)
        snapshot = service.metrics()
        assert "service" in snapshot
        assert snapshot["service"]["counters"]["completions"] >= 1
        text = service.metrics_text()
        assert 'repro_service_queue_depth{tenant="alpha"} 0' in text
        assert "repro_service_completions_total" in text
        status = service.status()
        assert status["outstanding"] == 0
        assert status["counters"]["submissions"] == 1
    finally:
        service.drain(timeout=10)


def test_pid_alive_probe():
    import os

    assert _pid_alive(os.getpid()) is True
    assert _pid_alive(2**22 + 5) is False


def test_double_start_and_double_drain_are_idempotent(tmp_path):
    service = make_service(tmp_path / "data")
    assert service.start() is service.start()
    assert service.drain(timeout=10) is True
    assert service.drain(timeout=10) is True
