"""Task-fusion optimizer: correctness, accounting and demotion.

Fusion collapses chains of small pure tasks (and map-map stages, which
are N parallel chains) into single scheduled units whose members run
inline on one thread.  It must be invisible everywhere except the
scheduler counters: same values, same per-task trace records, same
stats/metrics reconciliation, same retry and cancellation semantics.
"""

from __future__ import annotations

import pytest

from repro.runtime import (
    INOUT,
    CancelledTaskError,
    Runtime,
    TaskExecutionError,
    current_attempt,
    task,
    wait_on,
)
from repro.runtime import observability as obs
from repro.runtime.config import RuntimeConfig
from repro.runtime.engine import _FUSE_MAX


@task(returns=1)
def inc(x):
    return x + 1


@task(returns=1)
def double(x):
    return x * 2


@task(returns=1)
def attempt_of(_x):
    return current_attempt()


@task(returns=1)
def attempts_after(seen):
    return (seen, current_attempt())


def fused_runtime(**kw):
    kw.setdefault("executor", "threads")
    kw.setdefault("max_workers", 4)
    kw.setdefault("fusion", True)
    return Runtime(config=RuntimeConfig(**kw))


def sched(rt):
    return rt.stats()["scheduler"]


# ----------------------------------------------------------------------
# values & counters
# ----------------------------------------------------------------------
def test_chain_fuses_into_one_unit():
    with fused_runtime() as rt:
        f = rt.submit_many([inc.defer(0)])[0]
        for _ in range(7):
            f = rt.submit_many([inc.defer(f)])[0]
        assert wait_on(f) == 8
        s = sched(rt)
        assert s["fused_units"] == 1
        assert s["fused_tasks"] == 8


def test_map_map_fuses_one_unit_per_element():
    width, depth = 8, 5
    with fused_runtime() as rt:
        futs = rt.submit_many([inc.defer(i) for i in range(width)])
        for _ in range(depth - 1):
            futs = rt.submit_many([double.defer(f) for f in futs])
        assert wait_on(futs) == [(i + 1) * 2 ** (depth - 1) for i in range(width)]
        s = sched(rt)
        assert s["fused_units"] == width
        assert s["fused_tasks"] == width * depth


def test_single_submit_chain_fuses_opportunistically():
    """Plain submit() calls flow through the same buffering: a linear
    chain built one call at a time still fuses until the first wait."""
    with fused_runtime() as rt:
        f = inc(0)
        for _ in range(5):
            f = inc(f)
        assert wait_on(f) == 6
        assert sched(rt)["fused_tasks"] == 6


def test_fusion_off_runs_identically():
    def workload(rt):
        futs = rt.submit_many([inc.defer(i) for i in range(6)])
        futs = rt.submit_many([double.defer(f) for f in futs])
        return wait_on(futs)

    with fused_runtime() as rt:
        fused = workload(rt)
        assert sched(rt)["fused_tasks"] == 12
    with fused_runtime(fusion=False) as rt:
        unfused = workload(rt)
        assert sched(rt)["fused_tasks"] == 0
    assert fused == unfused


def test_fused_members_see_their_own_attempt():
    """A fused member runs through the backend like any task, so
    ``current_attempt()`` inside it is the instance's attempt — here a
    head seeded with ``initial_attempt=3`` (as the queue service does on
    redelivery) and a dependent at attempt 0."""

    def workload(rt):
        head = rt.submit(attempt_of.spec, (0,), {}, initial_attempt=3)
        return wait_on(attempts_after(head))

    with fused_runtime() as rt:
        fused = workload(rt)
        assert sched(rt)["fused_tasks"] == 2
    with fused_runtime(fusion=False) as rt:
        unfused = workload(rt)
    assert fused == unfused == (3, 0)


def test_singleton_unit_demotes_to_plain_task():
    """A lone eligible task opens a unit but nothing extends it: the
    flush demotes it back to a plain enqueue, not a 1-member unit."""
    with fused_runtime() as rt:
        f = rt.submit_many([inc.defer(41)])[0]
        assert wait_on(f) == 42
        s = sched(rt)
        assert s["fused_units"] == 0
        assert s["fused_tasks"] == 0


def test_unit_capped_at_fuse_max():
    depth = _FUSE_MAX + 10
    with fused_runtime() as rt:
        f = rt.submit_many([inc.defer(0)])[0]
        for _ in range(depth - 1):
            f = rt.submit_many([inc.defer(f)])[0]
        assert wait_on(f) == depth
        s = sched(rt)
        # The cap closes the unit; the overflow links depend on a
        # buffered (still-pending) tail, so they run unfused — only a
        # dependency-free head opens a fresh unit.
        assert s["fused_units"] == 1
        assert s["fused_tasks"] == _FUSE_MAX


def test_consumed_intermediate_breaks_the_chain():
    """A second consumer of an intermediate future must not fuse past
    it — the chain rule requires exactly one consumer so far."""
    with fused_runtime() as rt:
        a = rt.submit_many([inc.defer(0)])[0]
        b = rt.submit_many([inc.defer(a)])[0]
        c = rt.submit_many([double.defer(a)])[0]  # second consumer of a
        assert wait_on([b, c]) == [2, 2]


# ----------------------------------------------------------------------
# eligibility gates
# ----------------------------------------------------------------------
def test_impure_tasks_do_not_fuse():
    np = pytest.importorskip("numpy")

    @task(acc=INOUT)
    def accumulate(acc, v):
        acc += v

    @task(returns=1)
    def read_sum(arr):
        return float(arr.sum())

    with fused_runtime() as rt:
        acc = np.zeros(4)
        rt.submit_many([accumulate.defer(acc, 1.0)])
        rt.submit_many([accumulate.defer(acc, 2.0)])
        assert wait_on(read_sum(acc)) == pytest.approx(12.0)
        assert sched(rt)["fused_tasks"] == 0


def test_timeout_tasks_do_not_fuse():
    @task(returns=1, time_out=30.0)
    def timed(x):
        return x

    with fused_runtime() as rt:
        f = rt.submit_many([timed.defer(1)])[0]
        g = rt.submit_many([timed.defer(f)])[0]
        assert wait_on(g) == 1
        assert sched(rt)["fused_tasks"] == 0


# ----------------------------------------------------------------------
# failure, retry & cancellation semantics
# ----------------------------------------------------------------------
def test_mid_unit_failure_demotes_and_retries():
    state = {"left": 1}

    @task(returns=1, retries=2)
    def flaky(x):
        if state["left"] > 0:
            state["left"] -= 1
            raise OSError("transient")
        return x + 10

    with fused_runtime() as rt:
        f = rt.submit_many([inc.defer(0)])[0]
        f = rt.submit_many([flaky.defer(f)])[0]
        f = rt.submit_many([inc.defer(f)])[0]
        assert wait_on(f) == 12  # 1 -> (+10 after one retry) -> +1
        assert rt.stats()["retries"] == 1


def test_mid_unit_failure_cancels_successors():
    @task(returns=1, retries=0)
    def bad(x):
        raise ValueError("boom")

    with fused_runtime() as rt:
        f = rt.submit_many([inc.defer(0)])[0]
        g = rt.submit_many([bad.defer(f)])[0]
        h = rt.submit_many([inc.defer(g)])[0]
        with pytest.raises((TaskExecutionError, CancelledTaskError)):
            wait_on(h)
        with pytest.raises(TaskExecutionError):
            wait_on(g)
        assert wait_on(f) == 1  # the member before the failure completed


# ----------------------------------------------------------------------
# accounting: stats, metrics, trace, provenance
# ----------------------------------------------------------------------
def _chain_and_map_workload(rt):
    futs = rt.submit_many([inc.defer(i) for i in range(4)])
    futs = rt.submit_many([double.defer(f) for f in futs])
    head = rt.submit_many([inc.defer(futs[0])])[0]
    return wait_on([head, *futs[1:]])


def test_stats_and_metrics_reconcile_exactly():
    with fused_runtime(observability="metrics") as rt:
        _chain_and_map_workload(rt)
        rt.barrier()
        snap, stats, trace = rt.metrics(), rt.stats(), rt.trace()
        kinds = [row["kind"] for row in obs.lifecycle_events(rt._attempts())]
    # every member is submitted, run and finished once, fused or not...
    assert obs.metric_value(snap, "repro_tasks_submitted_total") == stats["n_tasks"] == 9
    assert obs.metric_value(snap, "repro_tasks_total", state="done") == 9
    assert obs.metric_value(snap, "repro_tasks_running") == 0
    assert kinds.count("submitted") == kinds.count("running") == kinds.count("done") == 9
    durations = [
        h for h in snap["histograms"] if h["name"] == "repro_task_duration_seconds"
    ]
    assert sum(h["count"] for h in durations) == trace.n_executed == 9
    # ...but only an unfused one takes a ready-queue slot of its own
    fused = stats["scheduler"]["fused_tasks"]
    assert fused > 0
    assert obs.metric_value(snap, "repro_tasks_enqueued_total", default=0) == 9 - fused
    # (a fused member is stamped ready when its unit is armed)
    assert kinds.count("ready") == 9


def test_every_member_has_its_own_trace_record():
    with fused_runtime() as rt:
        _chain_and_map_workload(rt)
        rt.barrier()
        trace = rt.trace()
        s = sched(rt)
        fused_records = [r for r in trace if r.fused_id is not None]
        assert len(trace) == 9
        assert len(fused_records) == s["fused_tasks"]
        # members of one unit share its id and ran on one thread
        by_unit: dict[int, list] = {}
        for rec in fused_records:
            by_unit.setdefault(rec.fused_id, []).append(rec)
        assert len(by_unit) == s["fused_units"]
        for members in by_unit.values():
            assert len({m.worker for m in members}) == 1
            for m in members:
                assert m.status == "done"
                assert m.t_end >= m.t_start
                assert m.queue_wait >= 0.0


def test_fused_graph_states_are_terminal():
    with fused_runtime() as rt:
        _chain_and_map_workload(rt)
        rt.barrier()
        snap = rt.graph.snapshot()
        assert snap.number_of_nodes() == 9
        assert all(d.get("state") == "done" for _, d in snap.nodes(data=True))


def test_checkpoint_store_falls_back_to_full_path(tmp_path):
    """With a checkpoint store attached, members run the full execute
    path (signatures, store writes) and a resume restores them."""
    with fused_runtime(checkpoint_dir=str(tmp_path)) as rt:
        f = rt.submit_many([inc.defer(0)])[0]
        f = rt.submit_many([inc.defer(f)])[0]
        assert wait_on(f) == 2
    with fused_runtime(checkpoint_dir=str(tmp_path)) as rt:
        f = rt.submit_many([inc.defer(0)])[0]
        f = rt.submit_many([inc.defer(f)])[0]
        assert wait_on(f) == 2
        assert rt.trace().n_restored == 2


def test_repro_fusion_env_enables(monkeypatch):
    monkeypatch.setenv("REPRO_FUSION", "1")
    cfg = RuntimeConfig.from_env(executor="threads", max_workers=2)
    assert cfg.fusion is True
    with Runtime(config=cfg) as rt:
        f = rt.submit_many([inc.defer(0)])[0]
        f = rt.submit_many([inc.defer(f)])[0]
        assert wait_on(f) == 2
        assert sched(rt)["fused_tasks"] == 2


def test_sequential_executor_ignores_fusion():
    with Runtime(config=RuntimeConfig(executor="sequential", fusion=True)) as rt:
        f = rt.submit_many([inc.defer(0)])[0]
        assert wait_on(f) == 1
        assert sched(rt)["fused_tasks"] == 0


# ----------------------------------------------------------------------
# event-only waiters must flush buffered units (deadlock regression)
# ----------------------------------------------------------------------
def test_future_result_flushes_buffered_unit():
    """``submit(); result()`` with no wait_on/barrier anywhere: the
    last-touched unit stays buffered at submit() return, so result()
    itself must arm it or the wait deadlocks forever."""
    with fused_runtime() as rt:
        f = inc(41)
        assert f.result(timeout=10) == 42


def test_future_result_flushes_buffered_chain():
    with fused_runtime() as rt:
        f = inc(0)
        for _ in range(5):
            f = inc(f)
        assert f.result(timeout=10) == 6
        assert sched(rt)["fused_tasks"] == 6


def test_future_result_flushes_submit_many_unit():
    with fused_runtime() as rt:
        f = rt.submit_many([inc.defer(0)])[0]
        f = rt.submit_many([inc.defer(f)])[0]
        assert f.result(timeout=10) == 2


def test_done_polling_flushes_buffered_unit():
    """A ``while not f.done`` loop is the other event-only
    synchronisation shape: polling must make progress too."""
    import time as _time

    with fused_runtime() as rt:
        f = inc(0)
        f = inc(f)
        deadline = _time.monotonic() + 10
        while not f.done:
            assert _time.monotonic() < deadline, "done polling deadlocked"
            _time.sleep(0.001)
        assert f.result() == 2


def test_taskcall_kwargs_mutation_does_not_leak():
    """TaskCall is public: a caller may mutate its kwargs dict after
    submit_many() returns, while the task is still buffered in an open
    fused unit — the submitted arguments must be unaffected."""

    @task(returns=1)
    def add_kw(*, x=0):
        return x + 1

    from repro.runtime.model import TaskCall

    with fused_runtime() as rt:
        kw = {"x": 1}
        f = rt.submit_many([TaskCall(add_kw.spec, (), kw)])[0]
        kw["x"] = 999  # the singleton unit is still buffered here
        assert f.result(timeout=10) == 2
