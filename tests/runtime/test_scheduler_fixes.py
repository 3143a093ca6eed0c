"""Regression tests for the event-driven scheduler overhaul and the
correctness fixes that rode along with it:

* retried tasks are counted once per attempt in ``stats()`` (the root
  alias no longer shadows the failed attempt);
* ``_identity_candidates`` traverses dict *values*, so INOUT shards
  passed in a dict create dependencies;
* declared parameter defaults take part in dependency detection, so a
  direction-annotated parameter left at its default records its write;
* a ``BaseException`` (e.g. ``KeyboardInterrupt``) escaping a task body
  kills the workflow instead of silently killing the worker thread and
  hanging every waiter;
* the scheduler hot path contains no ``Condition.wait(timeout=...)``
  polling.
"""

from __future__ import annotations

import inspect
import re
import threading

import pytest

from repro.runtime import INOUT, Runtime, RuntimeStateError, TaskExecutionError, task, wait_on
from repro.runtime import engine
from tests.support.oracles import run_under_watchdog


# ----------------------------------------------------------------------
# S1: retry accounting
# ----------------------------------------------------------------------
def test_stats_counts_each_attempt_once():
    """A task that fails once and succeeds on retry must show up as one
    failed and one done attempt — the old root-alias bookkeeping
    dropped the failed attempt and counted the retry twice."""
    calls = {"n": 0}

    @task(returns=1, on_failure="RETRY", max_retries=2)
    def flaky():
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("first attempt fails")
        return 42

    with Runtime(executor="sequential") as rt:
        assert wait_on(flaky()) == 42
        stats, trace = rt.stats(), rt.trace()

    assert stats["by_state"] == {"failed": 1, "done": 1}
    assert stats["retries"] == 1
    assert sum(stats["by_state"].values()) == stats["n_tasks"]
    # the trace agrees: one failed attempt, of the task that failed
    assert trace.n_failed_attempts == 1
    assert [r.name for r in trace.records(status="failed")] == ["flaky"]


def test_task_state_of_root_id_follows_latest_attempt():
    calls = {"n": 0}

    @task(returns=1, on_failure="RETRY", max_retries=2)
    def flaky():
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("boom")
        return 7

    with Runtime(executor="sequential") as rt:
        fut = flaky()
        assert wait_on(fut) == 7
        # the root id resolves to the (successful) latest attempt ...
        assert rt._by_root[fut.task_id].state == "done"
        # ... while the retry attempt has its own id and state
        retried = [
            t for t in rt._tasks.values() if t.retry_of == fut.task_id
        ]
        assert len(retried) == 1 and retried[0].state == "done"
        assert rt._tasks[fut.task_id].state == "failed"


# ----------------------------------------------------------------------
# S2: dict traversal in dependency detection
# ----------------------------------------------------------------------
class _Shard:
    """Mutable identity-carrying object (containers are rebuilt by
    ``resolve_futures``; custom objects pass through by reference)."""

    def __init__(self) -> None:
        self.value = 0


def test_dict_values_participate_in_inout_dependencies():
    """A task mutating shards passed inside a dict must order before a
    later reader of one shard — dict values were previously invisible
    to identity-based dependency detection."""
    shard = _Shard()

    @task(shards=INOUT)
    def write_shards(shards):
        for v in shards.values():
            v.value += 1

    @task(returns=1)
    def read_shard(s):
        return s.value

    with Runtime(executor="sequential") as rt:
        write_shards({"a": shard})
        fut = read_shard(shard)
        assert wait_on(fut) == 1
        trace = rt.trace()

    reader = [r for r in trace if r.name == "read_shard"][0]
    writer = [r for r in trace if r.name == "write_shards"][0]
    assert writer.task_id in reader.deps


# ----------------------------------------------------------------------
# S3: declared defaults take part in dependency detection
# ----------------------------------------------------------------------
def test_default_parameter_records_inout_write():
    """An INOUT parameter left at its declared default must still
    record a write (Python evaluates defaults once, so the default
    object's identity is stable across calls)."""
    log = _Shard()

    @task(log=INOUT, returns=1)
    def record(value, log=log):
        log.value += value
        return log.value

    @task(returns=1)
    def read_log(entries):
        return entries.value

    with Runtime(executor="sequential") as rt:
        record(3)  # log at its default — the write must be recorded
        fut = read_log(log)
        assert wait_on(fut) == 3
        trace = rt.trace()

    reader = [r for r in trace if r.name == "read_log"][0]
    writer = [r for r in trace if r.name == "record"][0]
    assert writer.task_id in reader.deps


# ----------------------------------------------------------------------
# S4: BaseException escaping a task body
# ----------------------------------------------------------------------
def test_keyboard_interrupt_in_body_does_not_hang_waiters():
    """A raw ``KeyboardInterrupt`` raised inside a task body used to
    bypass ``except Exception``, silently kill the worker thread and
    hang every waiter; it must now surface through ``wait_on``."""

    @task(returns=1)
    def interrupt():
        raise KeyboardInterrupt("simulated ctrl-c inside a task body")

    outcome: dict[str, object] = {}
    rt = Runtime(executor="threads", max_workers=2)
    engine.push_runtime(rt)
    try:
        fut = interrupt()

        def drive() -> None:
            try:
                outcome["value"] = rt.wait_on(fut)
            except BaseException as exc:  # noqa: BLE001 - under test
                outcome["error"] = exc

        waiter = threading.Thread(target=drive, daemon=True)
        waiter.start()
        waiter.join(10.0)
        assert not waiter.is_alive(), "waiter hung after in-body KeyboardInterrupt"
        error = outcome.get("error")
        assert isinstance(error, (KeyboardInterrupt, TaskExecutionError))
    finally:
        engine.pop_runtime(rt)
        rt.shutdown(wait=False)


# ----------------------------------------------------------------------
# event-driven scheduler invariants
# ----------------------------------------------------------------------
def test_no_timeout_polling_on_scheduler_wait_paths():
    """The no-poll invariant at the source level: every park on the
    scheduler condition is ``wait()`` with no timeout.  (``Event.wait``
    deadlines — the task time_out watchdog — and thread joins are
    deadline waits, not polling, and are unaffected.)"""
    src = inspect.getsource(engine)
    assert re.search(r"_cond\.wait\(\s*[^)\s]", src) is None, (
        "scheduler condition must be waited on without a timeout"
    )
    assert "_cond.wait()" in src


def test_scheduler_counters_exposed_in_stats():
    @task(returns=1)
    def one():
        return 1

    with Runtime(executor="threads", max_workers=2) as rt:
        assert wait_on([one() for _ in range(10)]) == [1] * 10
        stats = rt.stats()

    sched = stats["scheduler"]
    for key in (
        "idle_wakeups",
        "worker_parks",
        "notifies",
        "broadcasts",
        "submit_contentions",
    ):
        assert key in sched and sched[key] >= 0
    # one targeted notify per enqueue, at least
    assert sched["notifies"] >= 10
    assert stats["idle_wakeups"] == sched["idle_wakeups"]
    assert stats["invariant_violations"] == 0


def test_check_invariants_clean_after_quiesced_run():
    @task(returns=1)
    def double(x):
        return 2 * x

    from repro.runtime.config import RuntimeConfig

    cfg = RuntimeConfig(executor="threads", max_workers=4)
    with Runtime(config=cfg) as rt:
        f = 1
        for _ in range(20):
            f = double(f)
        assert wait_on(f) == 2**20
        rt.barrier()
        assert rt.check_invariants(quiesced=True) == []


def test_default_runtime_records_an_illegal_transition():
    """The state-transition checks are always on: moving a finished
    task back to RUNNING is reported by ``check_invariants``."""

    @task(returns=1)
    def one():
        return 1

    with Runtime() as rt:
        fut = one()
        assert wait_on(fut) == 1
        rt.barrier()
        assert rt.check_invariants() == []
        inst = rt._by_root[fut.task_id]
        rt._set_state(inst, "running")
        assert rt.check_invariants() == [
            f"illegal transition done -> running for one#{inst.task_id}"
        ]
        rt._set_state(inst, "done")  # RUNNING -> DONE is legal: nothing more recorded
        assert len(rt.check_invariants(quiesced=True)) == 1
        # a wait already satisfied returns despite the violation, and so
        # does the drain at the ``with`` exit (nothing is unfinished)
        rt.barrier()
        assert wait_on(fut) == 1


def test_claiming_a_running_task_again_is_recorded():
    """The claim path has no self-loop: a second ``_execute`` of an
    instance a worker is already running (its body run twice) is
    reported as ``running -> running``."""
    from repro.runtime.config import RuntimeConfig

    started, gate, calls = threading.Event(), threading.Event(), []

    @task(returns=1)
    def slow():
        calls.append(1)
        if len(calls) == 1:
            started.set()
            gate.wait(10)
        return len(calls)

    with Runtime(config=RuntimeConfig(executor="threads", max_workers=2)) as rt:
        fut = slow()
        assert started.wait(10)
        inst = rt._by_root[fut.task_id]
        assert inst.state == "running"
        rt._execute(inst)  # the second claim runs the body again
        # The second run completed the attempt: nothing is unfinished,
        # so the exit's drain returns without waiting for the worker.
        assert rt.unfinished == 0
        gate.set()
    # the exit joined the worker thread: its first run has returned too
    assert len(calls) == 2
    assert rt.check_invariants() == [
        f"illegal transition running -> running for slow#{inst.task_id}"
    ]


def test_retiring_an_attempt_twice_is_recorded():
    """Retiring an attempt more often than it was submitted drives its
    owner's pending count negative — the top-level count for an
    application task, the parent attempt's for a nested one — and
    ``check_invariants`` reports it."""

    @task(returns=1)
    def leaf():
        return 1

    @task(returns=1)
    def parent():
        return wait_on(leaf())

    rt = Runtime(executor="sequential")
    with rt:
        top = parent()
        assert wait_on(top) == 1
        rt.barrier()
        (child,) = [i for i in rt._attempts() if i.parent_id == top.task_id]
        for inst in (rt._by_root[top.task_id], child):
            with rt._state_lock:
                rt._retire_locked(inst)
        violations = [
            "pending count of parent=None went negative",
            f"pending count of parent={top.task_id} went negative",
        ]
        assert rt.check_invariants() == violations
        # the unfinished count is off by two now: it can never drain,
        # so the exit's drain raises instead of parking
        with pytest.raises(RuntimeStateError) as err:
            rt.shutdown()
    assert "; ".join(violations) in str(err.value)
    assert rt._shutdown


def test_a_recorded_violation_ends_the_drain_at_exit():
    """A ``with Runtime()`` whose count went negative used to hang in
    its exit's drain.  It raises the violation instead, after tearing
    the runtime down: threads joined, nothing left running."""

    @task(returns=1)
    def one():
        return 1

    runtimes = []

    def run():
        with Runtime(executor="threads", max_workers=2) as rt:
            runtimes.append(rt)
            fut = one()
            assert wait_on(fut) == 1
            rt.barrier()
            inst = rt._by_root[fut.task_id]
            with rt._state_lock:
                rt._retire_locked(inst)  # retired a second time

    outcome = run_under_watchdog(run, timeout=20.0, label="exit after a double retire")
    assert "error" in outcome, outcome["problems"]
    assert isinstance(outcome["error"], RuntimeStateError)
    assert "pending count of parent=None went negative" in str(outcome["error"])
    (rt,) = runtimes
    assert rt._threads and not any(t.is_alive() for t in rt._threads)
