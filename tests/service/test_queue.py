"""Tests of the durable queue's state machine: submission idempotency,
fair-share + priority claiming, leases and expiry, idempotent result
recording, redelivery attempt accounting, cancellation, steering."""

from __future__ import annotations

import pytest

from repro.service.db import Database
from repro.service.queue import DEFAULT_TENANT, DurableQueue


class FakeClock:
    def __init__(self, t: float = 1000.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def queue(tmp_path, clock):
    db = Database(tmp_path / "queue.db")
    q = DurableQueue(db, clock=clock, retry_backoff=0.1, retry_backoff_cap=1.0)
    yield q
    db.close()


def submit(queue, i=0, tenant=DEFAULT_TENANT, **kw):
    kw.setdefault("signature", f"sig-{tenant}-{i}")
    return queue.submit(
        tenant=tenant,
        name=kw.pop("name", "noop"),
        module="repro.service.demo",
        qualname="add",
        payload=b"payload",
        **kw,
    )


def claim(queue, worker="s/w0", lease=10.0):
    return queue.claim(worker=worker, server="s", lease_timeout=lease)


#: Above linux's default pid_max: no live process has it.
DEAD_PID = 2**22 + 5


def mark_holder_dead(queue, task_id):
    """Make a lease taken by this (live) test process look like one
    left behind by a dead incarnation."""
    with queue.db.transaction() as conn:
        conn.execute("UPDATE tasks SET holder_pid = ? WHERE id = ?", (DEAD_PID, task_id))


# ----------------------------------------------------------------------
# submission
# ----------------------------------------------------------------------
def test_submit_and_task_roundtrip(queue):
    task_id = submit(queue, priority=3)
    row = queue.task(task_id)
    assert row["state"] == "queued"
    assert row["priority"] == 3
    assert row["attempt"] == 0
    assert queue.outstanding() == 1


def test_submit_is_idempotent_per_signature(queue):
    first = submit(queue, signature="same")
    second = submit(queue, signature="same")
    assert first == second
    assert queue.outstanding() == 1
    assert queue.stats()["counters"]["duplicate_submissions"] == 1


def test_submit_autocreates_tenant(queue):
    submit(queue, tenant="newcomer")
    assert queue.tenants()["newcomer"] == {"quota": None, "weight": 1.0}


def test_submit_rejects_negative_retries(queue):
    with pytest.raises(ValueError):
        submit(queue, max_retries=-1)


def test_delayed_submission_not_deliverable_until_due(queue, clock):
    submit(queue, delay=5.0)
    assert claim(queue) is None
    clock.advance(5.1)
    assert claim(queue) is not None


# ----------------------------------------------------------------------
# claiming: priority, FIFO, fair share, quotas
# ----------------------------------------------------------------------
def test_claim_orders_by_priority_then_fifo(queue):
    low = submit(queue, 0, priority=0)
    high = submit(queue, 1, priority=5)
    mid_a = submit(queue, 2, priority=3)
    mid_b = submit(queue, 3, priority=3)
    order = [claim(queue).id for _ in range(4)]
    assert order == [high, mid_a, mid_b, low]


def test_claim_returns_none_on_empty_queue(queue):
    assert claim(queue) is None


def test_claim_is_exclusive(queue):
    submit(queue)
    assert claim(queue, worker="s/w0") is not None
    assert claim(queue, worker="s/w1") is None  # single task, already leased


def test_fair_share_prefers_least_loaded_tenant(queue):
    queue.ensure_tenant("a", weight=1.0)
    queue.ensure_tenant("b", weight=1.0)
    for i in range(3):
        submit(queue, i, tenant="a")
        submit(queue, i, tenant="b")
    tenants = [claim(queue, worker=f"s/w{i}").tenant for i in range(4)]
    # strict alternation: each claim goes to the tenant with fewer
    # active leases
    assert tenants in (["a", "b", "a", "b"], ["b", "a", "b", "a"])


def test_fair_share_weight_skews_shares(queue):
    queue.ensure_tenant("heavy", weight=4.0)
    queue.ensure_tenant("light", weight=1.0)
    for i in range(8):
        submit(queue, i, tenant="heavy")
        submit(queue, i, tenant="light")
    got = [claim(queue, worker=f"s/w{i}").tenant for i in range(5)]
    # shares: heavy 0/4 < light 0/1 tie-broken by active count; after
    # one each, heavy (1/4) stays below light (1/1) until 4:1.
    assert got.count("heavy") == 4
    assert got.count("light") == 1


def test_quota_caps_concurrent_leases(queue):
    queue.ensure_tenant("capped", quota=1)
    submit(queue, 0, tenant="capped")
    submit(queue, 1, tenant="capped")
    first = claim(queue, worker="s/w0")
    assert first is not None
    assert claim(queue, worker="s/w1") is None  # at quota
    queue.complete(
        first.id, first.signature, payload=b"", worker="s/w0", attempt=0
    )
    assert claim(queue, worker="s/w1") is not None  # headroom back


def test_quota_of_one_tenant_does_not_starve_others(queue):
    queue.ensure_tenant("capped", quota=1)
    submit(queue, 0, tenant="capped")
    submit(queue, 1, tenant="capped")
    submit(queue, 0, tenant="free")
    assert claim(queue, worker="s/w0").tenant == "capped"
    assert claim(queue, worker="s/w1").tenant == "free"


# ----------------------------------------------------------------------
# leases: heartbeat, expiry
# ----------------------------------------------------------------------
def test_heartbeat_extends_lease(queue, clock):
    submit(queue)
    claimed = claim(queue, lease=10.0)
    clock.advance(8.0)
    assert queue.heartbeat(claimed.id, "s/w0", 10.0) is True
    clock.advance(8.0)  # 16s after claim, but 8s after heartbeat
    assert queue.expire_leases() == []


def test_heartbeat_from_wrong_worker_rejected(queue):
    submit(queue)
    claimed = claim(queue, worker="s/w0")
    assert queue.heartbeat(claimed.id, "s/w1", 10.0) is False


def test_expired_lease_redelivers_with_charged_attempt(queue, clock):
    task_id = submit(queue)
    claim(queue, lease=5.0)
    clock.advance(5.1)
    assert queue.expire_leases() == [task_id]
    row = queue.task(task_id)
    assert row["state"] == "queued"
    assert row["attempt"] == 1  # going dark charges the retry budget
    assert row["not_before"] > clock()  # backoff before redelivery
    counters = queue.stats()["counters"]
    assert counters["lease_expirations"] == 1
    assert counters["redeliveries"] == 1


def test_expiry_exhausting_retries_buries_task(queue, clock):
    task_id = submit(queue, max_retries=0)
    claimed = claim(queue, lease=1.0)
    clock.advance(1.1)
    queue.expire_leases()
    row = queue.task(task_id)
    assert row["state"] == "failed"
    result = queue.lookup_result(claimed.signature)
    assert result["status"] == "error"
    assert b"lease expired" in result["payload"]


# ----------------------------------------------------------------------
# completion: idempotent results
# ----------------------------------------------------------------------
def test_complete_records_result_and_frees_lease(queue):
    task_id = submit(queue)
    claimed = claim(queue)
    outcome = queue.complete(
        claimed.id, claimed.signature, payload=b"42", worker="s/w0", attempt=0
    )
    assert outcome == "recorded"
    assert queue.task(task_id)["state"] == "done"
    assert queue.lookup_result(claimed.signature)["payload"] == b"42"
    assert queue.outstanding() == 0


def test_duplicate_completion_discarded_not_double_recorded(queue):
    submit(queue)
    claimed = claim(queue)
    assert (
        queue.complete(claimed.id, claimed.signature, payload=b"1", worker="s/w0", attempt=0)
        == "recorded"
    )
    # a presumed-dead twin reports after the fact
    assert (
        queue.complete(claimed.id, claimed.signature, payload=b"2", worker="s/w9", attempt=1)
        == "duplicate"
    )
    assert queue.lookup_result(claimed.signature)["payload"] == b"1"
    assert queue.stats()["counters"]["duplicates_discarded"] == 1


def test_resolve_deduplicated_finishes_without_rerun(queue, clock):
    """A redelivered task whose first delivery's result landed is
    closed out by the dedup fast path."""
    task_id = submit(queue)
    first = claim(queue, worker="s/w0", lease=1.0)
    clock.advance(1.1)
    queue.expire_leases()
    # the dark first delivery still completes (late but successful)
    queue.complete(first.id, first.signature, payload=b"v", worker="s/w0", attempt=0)
    redelivery = claim(queue, worker="s/w1", lease=10.0)
    assert redelivery is None or redelivery.id == task_id
    if redelivery is not None:  # not_before backoff may defer it
        queue.resolve_deduplicated(redelivery.id, "s/w1")
    assert queue.task(task_id)["state"] == "done"


def test_complete_rejects_bad_status(queue):
    submit(queue)
    claimed = claim(queue)
    with pytest.raises(ValueError):
        queue.complete(
            claimed.id, claimed.signature, payload=b"", worker="s/w0",
            attempt=0, status="maybe",
        )


# ----------------------------------------------------------------------
# failure reporting and redelivery
# ----------------------------------------------------------------------
def test_fail_attempt_requeues_with_backoff(queue, clock):
    task_id = submit(queue)
    claim(queue)
    assert queue.fail_attempt(task_id, "s/w0", "boom") == "requeued"
    row = queue.task(task_id)
    assert row["state"] == "queued"
    assert row["attempt"] == 1
    assert row["not_before"] > clock()


def test_fail_attempt_exhausted_buries_with_error_result(queue):
    task_id = submit(queue, max_retries=1)
    for expected in ("requeued", "failed"):
        # clear the backoff so the redelivery is claimable immediately
        queue._clock.advance(10.0)
        claimed = claim(queue)
        assert claimed is not None
        assert queue.fail_attempt(task_id, "s/w0", "kaput") == expected
    row = queue.task(task_id)
    assert row["state"] == "failed"
    result = queue.lookup_result(row["signature"])
    assert result["status"] == "error"
    assert result["payload"] == b"kaput"


def test_fail_attempt_from_stale_worker_ignored(queue, clock):
    task_id = submit(queue)
    claim(queue, worker="s/w0", lease=1.0)
    clock.advance(1.1)
    queue.expire_leases()
    clock.advance(10.0)
    fresh = claim(queue, worker="s/w1")
    assert fresh is not None
    # the dark original reports a failure it no longer owns
    assert queue.fail_attempt(task_id, "s/w0", "late boom") == "stale"
    assert queue.task(task_id)["state"] == "leased"  # w1's delivery unharmed
    assert queue.stats()["counters"]["stale_reports"] == 1


def test_release_requeues_at_once_without_charging(queue, clock):
    task_id = submit(queue)
    claim(queue, worker="s/w0")
    assert queue.release(task_id, "s/w1") == "stale"  # not w1's lease
    assert queue.release(task_id, "s/w0") == "requeued"
    row = queue.task(task_id)
    assert (row["state"], row["attempt"], row["not_before"]) == ("queued", 0, clock())
    assert queue.release(task_id, "s/w0") == "stale"  # no longer leased
    assert claim(queue, worker="s/w1").attempt == 0


def test_redelivery_backoff_grows_with_attempts(queue, clock):
    task_id = submit(queue, max_retries=5)
    delays = []
    for _ in range(3):
        clock.advance(100.0)
        claim(queue)
        queue.fail_attempt(task_id, "s/w0", "again")
        delays.append(queue.task(task_id)["not_before"] - clock())
    assert delays[0] < delays[1] < delays[2]  # exponential (jitter < growth)


# ----------------------------------------------------------------------
# cold-start recovery
# ----------------------------------------------------------------------
def test_recover_requeues_leased_without_charging(queue):
    task_id = submit(queue)
    claim(queue)
    mark_holder_dead(queue, task_id)
    recovered = queue.recover("server-2")
    assert recovered == [task_id]
    row = queue.task(task_id)
    assert row["state"] == "queued"
    assert row["attempt"] == 0  # the crash was not the task's fault
    assert row["not_before"] <= queue._clock()  # immediately deliverable
    assert queue.stats()["counters"]["recoveries"] == 1


def test_recover_handles_leased_state_without_lease_row(queue):
    """A ``leased`` task with no recorded holder — what a database from
    before the lease columns shows after migration — is recovered as
    dead."""
    task_id = submit(queue)
    claim(queue)
    with queue.db.transaction() as conn:
        conn.execute(
            "UPDATE tasks SET worker = NULL, server = NULL, holder_pid = NULL, "
            "expires_at = NULL WHERE id = ?",
            (task_id,),
        )
    assert queue.recover("server-2") == [task_id]
    assert queue.task(task_id)["state"] == "queued"


def test_recover_leaves_leases_of_live_holders(queue):
    """A lease held by a live process (a sibling service on the same
    data directory) is not recovery's to take."""
    task_id = submit(queue)
    claim(queue)
    assert queue.recover("server-2") == []
    assert queue.task(task_id)["state"] == "leased"
    assert "recoveries" not in queue.stats()["counters"]


def test_leaving_leased_clears_the_lease_columns(queue, clock):
    """Every transition out of ``leased`` clears the lease in the same
    UPDATE, so no row is left leased-looking in another state."""
    submit(queue, 0)
    failed = submit(queue, 1, max_retries=0)
    submit(queue, 2)
    c = claim(queue)
    queue.complete(c.id, c.signature, payload=b"", worker="s/w0", attempt=0)
    claim(queue)
    queue.fail_attempt(failed, "s/w0", "boom")
    claim(queue, lease=1.0)
    clock.advance(1.1)
    queue.expire_leases()
    rows = queue.db.query(
        "SELECT state, worker, server, holder_pid, expires_at FROM tasks ORDER BY id"
    )
    assert [r["state"] for r in rows] == ["done", "failed", "queued"]
    assert all(
        (r["worker"], r["server"], r["holder_pid"], r["expires_at"]) == (None,) * 4
        for r in rows
    )


# ----------------------------------------------------------------------
# control plane: cancel, reprioritize
# ----------------------------------------------------------------------
def test_cancel_queued_is_immediate(queue):
    task_id = submit(queue)
    assert queue.cancel(task_id) == "cancelled"
    assert queue.task(task_id)["state"] == "cancelled"
    assert claim(queue) is None


def test_cancel_leased_finalizes_on_redelivery_path(queue, clock):
    task_id = submit(queue)
    claim(queue, lease=1.0)
    assert queue.cancel(task_id) == "cancel_requested"
    assert queue.task(task_id)["state"] == "leased"  # in-flight continues
    clock.advance(1.1)
    queue.expire_leases()  # would redeliver, but cancellation wins
    assert queue.task(task_id)["state"] == "cancelled"


def test_cancel_terminal_and_unknown(queue):
    task_id = submit(queue)
    claimed = claim(queue)
    queue.complete(claimed.id, claimed.signature, payload=b"", worker="s/w0", attempt=0)
    assert queue.cancel(task_id) == "noop"
    assert queue.cancel(9999) == "unknown"


def test_reprioritize_moves_queued_task_ahead(queue):
    first = submit(queue, 0, priority=0)
    second = submit(queue, 1, priority=0)
    assert queue.reprioritize(second, 9) is True
    assert claim(queue).id == second
    assert claim(queue, worker="s/w1").id == first


def test_reprioritize_terminal_task_refused(queue):
    task_id = submit(queue)
    claimed = claim(queue)
    queue.complete(claimed.id, claimed.signature, payload=b"", worker="s/w0", attempt=0)
    assert queue.reprioritize(task_id, 5) is False


def test_reprioritize_leased_task_survives_lease_expiry(tmp_path, clock):
    """Chaos regression for the leased-task steering path: boost a
    task *while leased*, let the lease go dark and expire, and assert
    the redelivered task outranks older queued work at the next claim.
    Priority lives only in the ``tasks`` row — the redelivery path
    must not reset it and the claim query must read it live."""
    db = Database(tmp_path / "steer.db")
    q = DurableQueue(db, clock=clock, retry_backoff=0.0)
    try:
        boosted = submit(q, 0, priority=0)
        rival = submit(q, 1, priority=5)
        claimed = claim(q, lease=1.0)
        assert claimed.id == rival  # rival outranks pre-boost
        q.complete(claimed.id, claimed.signature, payload=b"", worker="s/w0", attempt=0)
        claimed = claim(q, lease=1.0)
        assert claimed.id == boosted
        assert q.reprioritize(boosted, 9) is True  # steer while leased
        older = submit(q, 2, priority=8)
        clock.advance(1.1)
        assert q.expire_leases() == [boosted]
        # retry_backoff=0: redelivery is immediately claimable, and the
        # boosted priority (9) set mid-lease beats the queued 8.
        redelivered = claim(q, worker="s/w1")
        assert redelivered.id == boosted
        assert redelivered.priority == 9
        assert redelivered.attempt == 1  # expiry charged an attempt
        assert claim(q, worker="s/w2").id == older
    finally:
        db.close()


# ----------------------------------------------------------------------
# observability surfaces
# ----------------------------------------------------------------------
def test_stats_shape(queue):
    queue.ensure_tenant("idle")
    submit(queue, 0, tenant="busy")
    claim(queue)
    stats = queue.stats()
    assert stats["tenants"]["busy"] == {"leased": 1}
    assert stats["tenants"]["idle"] == {}  # seeded even with no tasks
    assert stats["counters"]["submissions"] == 1
    assert stats["counters"]["claims"] == 1


#: ``stats()["counters"]`` of ``run_counter_script`` as recorded when the
#: counters were a table of their own, bumped next to each provenance row.
COUNTERS_OF_SCRIPT = {
    "cancellations": 2, "claims": 8, "completions": 1, "dedup_skips": 1,
    "duplicate_submissions": 1, "duplicates_discarded": 1, "failures": 2,
    "heartbeats": 1, "lease_expirations": 3, "recoveries": 1, "redeliveries": 3,
    "reprioritizations": 1, "stale_reports": 1, "submissions": 8,
}


def test_counters_are_a_view_of_provenance(queue, clock):
    """A scripted sequence reaching every counter: the provenance view
    counts exactly what the counters table used to."""
    a = submit(queue, signature="a")
    assert submit(queue, signature="a") == a  # duplicate submission
    assert claim(queue).id == a
    assert queue.heartbeat(a, "s/w0", 10.0)
    assert queue.complete(a, "a", payload=b"1", worker="s/w0", attempt=0) == "recorded"
    assert queue.complete(a, "a", payload=b"2", worker="s/w9", attempt=0) == "duplicate"
    b = submit(queue, signature="b")
    assert claim(queue).id == b
    queue.resolve_deduplicated(b, "s/w0")  # dedup skip
    c = submit(queue, signature="c", max_retries=1)
    assert claim(queue).id == c
    assert queue.fail_attempt(c, "s/w0", "boom") == "requeued"
    clock.advance(10.0)
    assert claim(queue).id == c
    assert queue.fail_attempt(c, "s/w0", "boom") == "failed"
    d = submit(queue, signature="d")
    assert claim(queue, lease=1.0).id == d
    assert queue.fail_attempt(d, "s/w9", "late") == "stale"
    e = submit(queue, signature="e", max_retries=0)
    assert claim(queue, lease=1.0).id == e
    f = submit(queue, signature="f")
    assert claim(queue, lease=1.0).id == f
    assert queue.cancel(f) == "cancel_requested"
    clock.advance(1.1)
    # expiry: d requeued, e buried, f's pending cancellation finalized
    assert sorted(queue.expire_leases()) == [d, e, f]
    assert [queue.task(t)["state"] for t in (d, e, f)] == ["queued", "failed", "cancelled"]
    g = submit(queue, signature="g")
    assert claim(queue, lease=3600.0).id == g
    mark_holder_dead(queue, g)
    assert queue.recover("server-2") == [g]
    h = submit(queue, signature="h")
    assert queue.cancel(h) == "cancelled"
    assert queue.reprioritize(g, 5)
    assert queue.stats()["counters"] == COUNTERS_OF_SCRIPT


def test_provenance_trail_covers_lifecycle(queue):
    task_id = submit(queue)
    claimed = claim(queue)
    queue.complete(claimed.id, claimed.signature, payload=b"", worker="s/w0", attempt=0)
    events = [p["event"] for p in queue.provenance(task_id)]
    assert events == ["submitted", "leased", "completed"]


def test_list_tasks_filters(queue):
    submit(queue, 0, tenant="a")
    submit(queue, 1, tenant="b")
    claim(queue)
    assert {t["tenant"] for t in queue.list_tasks()} == {"a", "b"}
    assert all(t["tenant"] == "a" for t in queue.list_tasks(tenant="a"))
    assert all(t["state"] == "queued" for t in queue.list_tasks(state="queued"))


def test_ensure_tenant_validates(queue):
    with pytest.raises(ValueError):
        queue.ensure_tenant("bad", weight=0.0)
    with pytest.raises(ValueError):
        queue.ensure_tenant("bad", quota=0)
