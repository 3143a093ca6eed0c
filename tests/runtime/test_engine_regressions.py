"""Regression tests for engine fixes: all-scope shutdown drain, the
condition-variable wait replacing the busy-loop, record-before-publish,
barrier on a killed or aborted runtime, no READY after an abort's
cancel, payload release at retirement, ``submit_many`` intake copying
the caller's containers, and futures that are only polled or
``result()``-waited on a pool, the released child a completing thread
runs next, a kill raised by ``shutdown`` only after its teardown, a
killed body's attempt and dependents retired, and a task too small to
hand off run by the thread that submits it."""

from __future__ import annotations

import gc
import os
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from repro.runtime import Runtime, task, wait_on
from repro.runtime import active, engine
from repro.runtime import observability as obs
from repro.runtime.backends import current_attempt
from repro.runtime.config import RuntimeConfig
from repro.runtime.exceptions import (
    CancelledTaskError,
    TaskExecutionError,
    WorkflowKilledError,
)
from tests.support.inline import warm


def test_shutdown_waits_for_all_live_scopes():
    """shutdown(wait=True) must drain tasks submitted from *every*
    thread's scope, not only the root scope."""
    box: list[int] = []

    @task(returns=1)
    def slow_mark():
        time.sleep(0.1)
        box.append(1)
        return 1

    rt = Runtime(executor="threads", max_workers=2)
    rt.__enter__()

    def submit_from_own_scope():
        # an adopted thread submits at top level from its own binding
        rt.bind_current_thread()
        slow_mark()

    t = threading.Thread(target=submit_from_own_scope)
    t.start()
    t.join()
    try:
        assert rt.unfinished >= 1  # task still pending when shutdown starts
        rt.shutdown(wait=True)
        assert box == [1]
        assert rt.unfinished == 0
    finally:
        rt.__exit__(None, None, None)  # pop the runtime stack


def test_context_exit_drains_background_submissions():
    box: list[int] = []

    @task(returns=1)
    def slow_mark():
        time.sleep(0.02)
        box.append(1)
        return 1

    with Runtime(executor="threads", max_workers=2) as rt:
        for _ in range(3):
            slow_mark()
        # no barrier: __exit__ must wait for the three tasks
    assert box == [1, 1, 1]
    assert rt.unfinished == 0


def test_help_until_parks_instead_of_spinning():
    """A long wait_on on an idle runtime must park on the condition
    variable, not spin: the wakeup count stays far below what a
    0.5 ms busy-loop would produce."""

    @task(returns=1)
    def napper():
        time.sleep(0.3)
        return 1

    with Runtime(executor="threads", max_workers=2) as rt:
        assert wait_on(napper()) == 1
        wakeups = rt.stats()["idle_wakeups"]
    # Event-driven scheduler: the waiter parks at most once for the
    # napper (plus one spurious re-check); 0.3 s of waiting under the
    # old 50 ms safety-net poll gave ~6, the busy-loop >= 300.
    assert wakeups <= 2


def test_idle_wakeups_exposed_in_stats():
    @task(returns=1)
    def ident(x):
        return x

    with Runtime(executor="sequential") as rt:
        assert wait_on([ident(i) for i in range(50)]) == list(range(50))
        # nobody ever waits in a sequential run
        assert rt.stats()["idle_wakeups"] == 0


# ----------------------------------------------------------------------
# submit-path correctness: submit() / submit_many() parity
# ----------------------------------------------------------------------
def test_submit_many_empty_batch_after_shutdown_raises():
    """The empty batch must hit the same state check as submit(): a
    shut-down runtime rejects submit_many([]) instead of silently
    returning []."""
    from repro.runtime import RuntimeStateError

    @task(returns=1)
    def one():
        return 1

    rt = Runtime(executor="threads", max_workers=1)
    with rt:
        pass  # clean shutdown
    with pytest.raises(RuntimeStateError):
        rt.submit(one.spec, (), {})
    with pytest.raises(RuntimeStateError):
        rt.submit_many([])
    with pytest.raises(RuntimeStateError):
        rt.submit_many([one.defer()])


def test_submit_many_empty_batch_after_abort_raises():
    """Same parity for the aborted state: an on_failure='FAIL' abort
    rejects later submit_many([]) exactly like submit()."""
    from repro.runtime import TaskExecutionError, WorkflowAbortedError
    from repro.runtime.failures import FAIL

    @task(returns=1, on_failure=FAIL)
    def fatal():
        raise RuntimeError("die")

    @task(returns=1)
    def one():
        return 1

    with Runtime(executor="threads", max_workers=1) as rt:
        f = fatal()
        with pytest.raises(TaskExecutionError):
            wait_on(f)
        assert rt.aborted is not None
        with pytest.raises(WorkflowAbortedError):
            one(1)
        with pytest.raises(WorkflowAbortedError):
            rt.submit_many([])
        rt._aborted = None  # let the context exit drain cleanly


def test_submit_many_accepts_tuple_and_list_forms():
    @task(returns=1)
    def add(a, b=0):
        return a + b

    with Runtime(executor="threads", max_workers=2) as rt:
        futs = rt.submit_many(
            [
                add.defer(1, b=2),
                (add, (3,)),
                [add, [4], {"b": 5}],
                (add.spec, (6,), {"b": 7}),
            ]
        )
        assert wait_on(futs) == [3, 3, 9, 13]


def test_submit_many_bad_item_names_type_and_index():
    @task(returns=1)
    def one():
        return 1

    with Runtime(executor="threads", max_workers=1) as rt:
        with pytest.raises(TypeError) as err:
            rt.submit_many([one.defer(), "nonsense"])
        msg = str(err.value)
        assert "str" in msg
        assert "batch index 1" in msg
        with pytest.raises(TypeError) as err:
            rt.submit_many([(one, (), {}, None, None)])  # 5-tuple: too long
        assert "batch index 0" in str(err.value)


def test_a_finished_future_is_already_in_the_trace():
    """``wait_on`` returning means every waited attempt is recorded: the
    success path records before it publishes the futures, as the
    failure paths always did.  No ``barrier()`` here on purpose — the
    last task's ``_complete`` may still be running when we read."""

    @task(returns=1)
    def noop(i):
        return i

    n, short = 100, 0
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # widen the publish -> record window
    try:
        for _ in range(200):
            with Runtime(executor="threads", max_workers=2) as rt:
                wait_on([noop(i) for i in range(n)])
                short += len(rt.trace()) != n
    finally:
        sys.setswitchinterval(interval)
    assert short == 0


def test_barrier_raises_on_a_runtime_killed_after_its_scope_drained():
    """``_help_until`` tests its predicate before the kill flag, and a
    body that raises ``KeyboardInterrupt`` still retires its task — so a
    ``barrier()`` entered after the scope drained used to return
    normally from a killed runtime."""

    @task(returns=1)
    def boom():
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        with Runtime(executor="threads", max_workers=2) as rt:
            boom()
            deadline = time.monotonic() + 10
            while rt.unfinished and time.monotonic() < deadline:
                time.sleep(0.001)
            assert rt.unfinished == 0 and rt.interruption() is not None
            rt.barrier()
            pytest.fail("barrier() returned normally on a killed runtime")


def test_an_abort_is_published_before_its_task_retires(monkeypatch):
    """A ``barrier()`` woken by the FAIL task retiring used to find the
    scope drained and ``_aborted`` not yet set, and return normally."""

    @task(returns=1, on_failure="FAIL")
    def boom():
        raise ValueError("abort")

    aborted_at_retire = []
    complete = Runtime._complete

    def spy(self, inst, state):
        if state == "failed":
            aborted_at_retire.append(self.aborted is not None)
        complete(self, inst, state)

    monkeypatch.setattr(Runtime, "_complete", spy)
    with Runtime(executor="threads", max_workers=2) as rt:
        boom()
        with pytest.raises(engine.WorkflowAbortedError):
            rt.barrier()
        rt.shutdown(wait=True)
    assert aborted_at_retire == [True]


def test_a_dependent_cancelled_by_an_abort_is_never_marked_ready():
    """An abort can cancel a dependent between a completion deciding to
    release it and the enqueue: the enqueue must leave it cancelled and
    off the queue (it used to become READY forever)."""
    gate = threading.Event()

    @task(returns=1)
    def parked():
        gate.wait(10)
        return 1

    @task(returns=1)
    def child(x):
        return x

    cfg = RuntimeConfig(executor="threads", max_workers=1)
    with Runtime(config=cfg) as rt:
        fut = child(parked())
        inst = rt._by_root[fut.task_id]
        rt._cancel_pending(inst)  # the abort
        rt._enqueue(inst)  # the completion's release, racing it
        assert inst.state == "cancelled"
        assert all(entry[-1] is not inst for entry in rt._ready)
        gate.set()
        rt.barrier()
    assert rt.check_invariants(quiesced=True) == []


class _Payload:
    """A weakly referenceable task argument."""


def test_a_retired_task_keeps_its_scalars_not_its_payload():
    """An argument is collectable once its task is done, failed for
    good, ignored, cancelled or superseded by a finished retry — with
    the runtime still open and every view still answering."""

    @task(returns=1)
    def ok(p):
        return 1

    @task(returns=1)
    def boom(p):
        raise ValueError("final")

    @task(returns=1, on_failure="IGNORE", failure_default=-1)
    def shrugged(p):
        raise ValueError("ignored")

    @task(returns=1, max_retries=1)
    def flaky(p):
        if current_attempt() == 0:
            raise ValueError("first attempt")
        return 2

    @task(returns=1)
    def after(upstream, p):
        return 3

    refs: dict[str, weakref.ref] = {}

    def submit(kind, fn, *deps):
        payload = _Payload()
        refs[kind] = weakref.ref(payload)
        return fn(*deps, payload)

    with Runtime(executor="threads", max_workers=2) as rt:
        failed = submit("failed", boom)
        submit("cancelled", after, failed)
        submit("done", ok)
        submit("ignored", shrugged)
        submit("retried", flaky)
        rt.barrier()
        gc.collect()  # a stored error and its (cleared) traceback frames are a cycle
        assert [kind for kind, ref in refs.items() if ref() is not None] == []
        assert sorted(r.status for r in rt.trace()) == [
            "done", "done", "failed", "failed", "ignored",
        ]
        graph = rt.graph
        assert graph.n_tasks == rt.stats()["n_tasks"] == 6
        assert graph.count_by_name() == rt.stats()["by_name"]
        assert rt.stats()["by_state"] == {
            "failed": 2, "cancelled": 1, "done": 2, "ignored": 1,
        }


# ----------------------------------------------------------------------
# batch intake and waiters that never enter the runtime
# ----------------------------------------------------------------------
@task(returns=1)
def _inc(x):
    return x + 1


@task(returns=1)
def _double(x):
    return x * 2


@task(returns=1)
def _attempt_of(_x):
    return current_attempt()


@task(returns=1)
def _attempts_after(seen):
    return (seen, current_attempt())


def _pool(**kw):
    kw.setdefault("executor", "threads")
    kw.setdefault("max_workers", 4)
    return Runtime(config=RuntimeConfig(**kw))


def _parked_future(gate: threading.Event):
    """A future that stays pending until *gate* is set, so a call
    depending on it is still pending when the test mutates its inputs."""

    @task(returns=1)
    def parked():
        gate.wait(10)
        return 1

    return parked()


def test_taskcall_kwargs_mutation_does_not_leak():
    """TaskCall is public: a caller may mutate its kwargs dict after
    submit_many() returns, while the task is still pending — the
    submitted arguments must be unaffected."""
    from repro.runtime.model import TaskCall

    @task(returns=1)
    def add_kw(*, x=0):
        return x + 1

    gate = threading.Event()
    with _pool() as rt:
        kw = {"x": _parked_future(gate)}
        f = rt.submit_many([TaskCall(add_kw.spec, (), kw)])[0]
        kw["x"] = 999
        gate.set()
        assert f.result(timeout=10) == 2


def test_taskcall_args_list_is_copied_at_submission():
    """A TaskCall built directly with a list ``args`` used to keep that
    very list in the pending task, so mutating it after submission
    changed what the task ran with."""
    from repro.runtime.model import TaskCall

    gate = threading.Event()
    with _pool() as rt:
        args = [_parked_future(gate)]
        f = rt.submit_many([TaskCall(_inc.spec, args)])[0]
        args[0] = 1000
        gate.set()
        assert f.result(timeout=10) == 2


def test_future_result_without_wait_on_resolves():
    """``submit(); result()`` with no wait_on/barrier anywhere: the
    pool alone must run the task."""
    with _pool():
        assert _inc(41).result(timeout=10) == 42


def test_future_result_resolves_a_chain():
    with _pool():
        f = _inc(0)
        for _ in range(5):
            f = _inc(f)
        assert f.result(timeout=10) == 6


def test_future_result_resolves_a_submit_many_chain():
    with _pool() as rt:
        f = rt.submit_many([_inc.defer(0)])[0]
        f = rt.submit_many([_inc.defer(f)])[0]
        assert f.result(timeout=10) == 2


def test_done_polling_makes_progress():
    """A ``while not f.done`` loop is the other event-only
    synchronisation shape: polling must see the chain finish."""
    with _pool():
        f = _inc(_inc(0))
        deadline = time.monotonic() + 10
        while not f.done:
            assert time.monotonic() < deadline, "done polling deadlocked"
            time.sleep(0.001)
        assert f.result() == 2


def test_chain_members_see_their_own_attempt():
    """``current_attempt()`` inside a chain member is that instance's
    attempt — here a head seeded with ``initial_attempt=3`` (as the
    queue service does on redelivery) and a dependent at attempt 0."""
    with _pool() as rt:
        head = rt.submit(_attempt_of.spec, (0,), {}, initial_attempt=3)
        assert wait_on(_attempts_after(head)) == (3, 0)


def test_retried_chain_member_sees_its_attempt():
    """A member retried mid-chain runs again at attempt 1 and releases
    the rest of the chain exactly once."""

    @task(returns=1, max_retries=2)
    def flaky(x):
        attempt = current_attempt()
        if attempt == 0:
            raise OSError("transient")
        return x + 10 * attempt

    with _pool() as rt:
        f = rt.submit_many([_inc.defer(0)])[0]
        f = rt.submit_many([flaky.defer(f)])[0]
        f = rt.submit_many([_inc.defer(f)])[0]
        assert wait_on(f) == 12  # 1 -> (+10 at attempt 1) -> +1
        rt.barrier()
        assert rt.stats()["retries"] == 1
        assert [r.attempt for r in rt.trace().records(name="flaky")] == [0, 1]


def test_failure_mid_chain_cancels_successors():
    """A chain member that fails for good cancels what follows it and
    leaves what ran before it done."""
    from repro.runtime import CancelledTaskError, TaskExecutionError

    @task(returns=1, max_retries=0)
    def bad(x):
        raise ValueError("boom")

    with _pool() as rt:
        f = rt.submit_many([_inc.defer(0)])[0]
        g = rt.submit_many([bad.defer(f)])[0]
        h = rt.submit_many([_inc.defer(g)])[0]
        with pytest.raises(CancelledTaskError):
            wait_on(h)
        with pytest.raises(TaskExecutionError):
            wait_on(g)
        assert wait_on(f) == 1


def test_submit_many_stats_and_trace_reconcile():
    """Every batch task is submitted, queued, run and finished once:
    one ``ready`` row and one ``t_ready`` stamp per attempt."""
    from repro.runtime import observability as obs

    with _pool() as rt:
        futs = rt.submit_many([_inc.defer(i) for i in range(4)])
        futs = rt.submit_many([_double.defer(f) for f in futs])
        head = rt.submit_many([_inc.defer(futs[0])])[0]
        assert wait_on([head, *futs[1:]]) == [3, 4, 6, 8]
        rt.barrier()
        stats, trace = rt.stats(), rt.trace()
        kinds = [row["kind"] for row in obs.lifecycle_events(rt._attempts())]
    assert stats["n_tasks"] == trace.n_executed == 9
    assert stats["by_state"] == {"done": 9}
    assert sum(r.t_ready is not None for r in trace) == 9
    for kind in ("submitted", "ready", "dispatched", "running", "done"):
        assert kinds.count(kind) == 9, kind


def test_submit_many_chain_resumes_from_checkpoint(tmp_path):
    """Batch registration signs and checkpoints like submit(): a second
    run of the same chain restores every task."""
    for run in range(2):
        with _pool(checkpoint_dir=str(tmp_path)) as rt:
            f = rt.submit_many([_inc.defer(0)])[0]
            f = rt.submit_many([_inc.defer(f)])[0]
            assert wait_on(f) == 2
            assert rt.trace().n_restored == 2 * run


def _aborting_error():
    from repro.runtime.exceptions import TaskExecutionError

    return TaskExecutionError("fatal", -1, ValueError("abort"))


def _queued_behind_a_parked_worker(rt, gate: threading.Event):
    """A READY task sitting in the queue of a one-worker pool whose
    worker is held by a parked body."""
    started = threading.Event()

    @task(returns=1)
    def hold():
        started.set()
        gate.wait(10)
        return 0

    hold()
    assert started.wait(10)
    # A spec no call has completed yet, so no body estimate lets it run
    # on this thread instead of queueing.
    inst = rt._by_root[_tiny()(1).task_id]
    assert inst.state == "ready"
    return inst


def test_an_abort_takes_its_cancelled_victims_off_the_queue():
    """A READY task cancelled by an abort leaves the ready queue with
    the abort, not when some thread pops and discards it: a quiesced
    audit (and ``stats()["ready_queue"]``) used to count it."""
    gate = threading.Event()
    with pytest.raises(engine.WorkflowAbortedError):
        with Runtime(executor="threads", max_workers=1) as rt:
            inst = _queued_behind_a_parked_worker(rt, gate)
            assert any(entry[-1] is inst for entry in rt._ready)
            assert rt._abort(_aborting_error())
            assert inst.state == "cancelled"
            assert rt._ready == []
            assert rt.stats()["ready_queue"] == 0
            assert rt.check_invariants(quiesced=False) == []
            gate.set()
            rt.barrier()
    assert rt.check_invariants(quiesced=True) == []


def test_an_enqueue_racing_an_abort_cannot_requeue_its_victim():
    """The abort lands between an enqueue marking a task READY and
    pushing it: the push must find it cancelled and leave the queue
    empty."""
    gate = threading.Event()
    with pytest.raises(engine.WorkflowAbortedError):
        with Runtime(executor="threads", max_workers=1) as rt:
            _queued_behind_a_parked_worker(rt, gate)
            heldback = rt.submit_many([_inc.defer(_parked_future(gate))])[0]
            child = rt._by_root[heldback.task_id]
            assert child.state == "pending"

            def mark_then_abort(inst):
                marked = Runtime._mark_ready(rt, inst)
                rt._abort(_aborting_error())
                return marked

            rt._mark_ready = mark_then_abort
            rt._enqueue(child)
            assert child.state == "cancelled"
            assert rt._ready == []
            gate.set()
            rt.barrier()
    assert rt.check_invariants(quiesced=True) == []


@task(returns=1)
def _attempt_around_a_nested_wait(nested_attempts):
    """This body's attempt, a nested task's, then this body's again."""
    before = current_attempt()
    if nested_attempts:
        inner = wait_on(_fails_then_reports_attempt(nested_attempts))
    else:
        inner = wait_on(_attempt_of(0))
    return before, inner, current_attempt()


@task(returns=1, max_retries=3)
def _fails_then_reports_attempt(failures):
    attempt = current_attempt()
    if attempt < failures:
        raise OSError(f"transient at attempt {attempt}")
    return attempt


@pytest.mark.parametrize("executor", ["sequential", "threads"])
def test_a_retried_body_keeps_its_attempt_across_a_nested_wait(executor):
    """A body at attempt 2 whose ``wait_on`` runs a nested attempt-0
    task on its own thread reads 2 again afterwards; a body at attempt
    0 whose nested task succeeds at attempt 1 reads 0 again."""
    with _pool(executor=executor, max_workers=1) as rt:
        spec = _attempt_around_a_nested_wait.spec
        retried = rt.submit(spec, (0,), {}, initial_attempt=2)
        assert wait_on(retried) == (2, 0, 2)
        assert wait_on(_attempt_around_a_nested_wait(1)) == (0, 1, 0)
        assert current_attempt() == 0


@pytest.mark.parametrize("executor", ["sequential", "threads"])
def test_a_future_of_another_runtime_reaches_the_body_as_its_value(executor):
    """Another runtime's future is no dependency, but the body still
    receives its value — positional, keyword and inside a container."""

    @task(returns=1)
    def total(a, items, *, b=0):
        return a + sum(items) + b

    with Runtime(executor="sequential") as other:
        foreign = other.submit(_inc.spec, (1,), {})
    assert foreign.done
    with _pool(executor=executor, max_workers=2) as rt:
        f = total(foreign, [foreign], b=foreign)
        assert wait_on(f) == 6
        assert rt._by_root[f.task_id].deps == frozenset()
        assert wait_on(_inc(foreign)) == 3


@pytest.mark.parametrize("executor", ["sequential", "threads"])
def test_a_parent_completes_after_the_children_it_never_waited_for(executor):
    """A body that submits nested tasks and returns without waiting on
    them still completes after every one of them: its attempt counts
    them pending and the body waits for zero before it retires."""
    done: list[int] = []

    @task(returns=1)
    def child(i):
        time.sleep(0.01)
        done.append(i)
        return i

    @task(returns=1)
    def parent():
        for i in range(3):
            child(i)
        return len(done)

    @task(returns=1)
    def leaf():
        return 0

    with _pool(executor=executor, max_workers=2) as rt:
        f = parent()
        f.result(timeout=10)
        assert sorted(done) == [0, 1, 2]
        assert wait_on(leaf()) == 0
        rt.barrier()
        records = {r.task_id: r for r in rt.trace()}
    kids = [r for r in records.values() if r.name == "child"]
    assert len(kids) == 3
    assert all(r.parent_id == f.task_id for r in kids)
    assert all(r.t_end <= records[f.task_id].t_end for r in kids)
    assert rt._by_root[f.task_id]._pending == 0
    assert all(r.parent_id is None for r in records.values() if r.name == "leaf")


def test_waiters_parked_on_completions_are_never_stranded():
    """Completions skip their broadcast while no ``wait_on`` waiter is
    parked, reading the parked count without the lock.  Six application
    threads and four workers (more than the cores) wait on chains
    finished by other threads, with the interpreter switching threads
    every 10 µs: a lost wakeup strands a waiter and the watchdog
    reports the hang."""
    from tests.support.oracles import run_under_watchdog

    def waiter(rt, k, seen):
        for i in range(200):
            f = _inc(_double(_inc(k * 1000 + i)))
            seen.append(wait_on(f) == 2 * (k * 1000 + i + 1) + 1)

    def scenario():
        seen: list[bool] = []
        with _pool(max_workers=4) as rt:
            threads = [
                threading.Thread(target=waiter, args=(rt, k, seen)) for k in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
            assert not any(t.is_alive() for t in threads)
            rt.barrier()
            assert rt.check_invariants(quiesced=True) == []
        return seen

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        outcome = run_under_watchdog(scenario, 60, "stranded-waiter scenario")
    finally:
        sys.setswitchinterval(interval)
    assert outcome["ok"], "\n".join(outcome["problems"])
    assert outcome["value"] == [True] * 1200


def test_a_completion_during_a_waiters_recheck_still_wakes_it():
    """The interleaving the unlocked read of the parked count must
    survive: a completion lands while a waiter re-checks its predicate
    under the lock, after the predicate found nothing done.  The waiter
    counted itself before the re-check, so the completion's broadcast
    waits for the lock and reaches the waiter once it parks."""
    from tests.support.oracles import run_under_watchdog

    done: list[int] = []
    calls = [0]

    def complete():
        done.append(1)
        rt._broadcast()

    def predicate():
        calls[0] += 1
        finished = bool(done)
        if calls[0] == 2:  # the re-check under the lock, before parking
            t = threading.Thread(target=complete)
            t.start()
            t.join(0.2)
        return finished

    with Runtime(executor="threads", max_workers=1) as rt:
        outcome = run_under_watchdog(lambda: rt._help_until(predicate), 10, "recheck race")
        assert outcome["ok"], "\n".join(outcome["problems"])
        assert calls[0] == 3 and rt.stats()["scheduler"]["broadcasts"] == 1


def test_application_barrier_skips_the_children_a_failed_body_left():
    """A body that raises with a nested child still pending fails
    without waiting for it.  The application's ``barrier()`` waits for
    top-level tasks only, so it returns with the child still running;
    shutdown drains the child."""
    gate = threading.Event()
    started = threading.Event()

    @task(returns=1)
    def child():
        started.set()
        gate.wait(10)
        return 1

    @task(returns=1)
    def parent():
        child()
        started.wait(10)
        raise ValueError("parent fails with its child pending")

    from repro.runtime import TaskExecutionError

    with Runtime(executor="threads", max_workers=2) as rt:
        try:
            with pytest.raises(TaskExecutionError):
                wait_on(parent())
            returned = threading.Event()
            waiter = threading.Thread(target=lambda: (rt.barrier(), returned.set()))
            waiter.start()
            assert returned.wait(5), "barrier() waited for the failed body's child"
            waiter.join(5)
            assert not waiter.is_alive()
            assert rt.unfinished == 1
        finally:
            gate.set()
    assert rt.unfinished == 0
    assert rt.check_invariants(quiesced=True) == []


# ----------------------------------------------------------------------
# the released child a completing thread keeps and runs next
# ----------------------------------------------------------------------
BACKENDS = pytest.mark.parametrize("backend", ["threads", "processes"])


@task(returns=1, priority=5)
def _urgent(x):
    return x


def _holding(gate: threading.Event):
    """A local task (so the processes backend runs it inline too) that
    holds the thread running it until *gate* is set, and the event it
    sets once it started."""
    started = threading.Event()

    @task(returns=1)
    def hold():
        started.set()
        gate.wait(10)
        return 0

    return hold, started


def _chain(head, links: int, inc=_inc):
    futures = [head]
    for _ in range(links):
        futures.append(inc(futures[-1]))
    return futures


@BACKENDS
def test_a_released_chain_runs_on_one_thread_without_a_notify_per_edge(backend):
    """Each link's completion keeps the next link for its own thread:
    the whole chain runs where its head was released, and no edge pushes
    onto the ready queue or wakes a thread."""
    gate = threading.Event()
    with _pool(backend=backend, max_workers=2) as rt:
        tail = _chain(_parked_future(gate), 200)[-1]
        before = rt.stats()["scheduler"]["notifies"]
        gate.set()
        assert tail.result(timeout=30) == 201
        rt.barrier()
        notifies = rt.stats()["scheduler"]["notifies"] - before
        threads = {r.worker for r in rt.trace() if r.name == "_inc"}
        assert rt.check_invariants(quiesced=True) == []
    assert notifies == 0
    assert len(threads) == 1


@BACKENDS
def test_a_completion_releasing_two_children_queues_exactly_one(backend):
    """Fan-out stays parallel: of two released children the first is
    kept, the second queued and notified."""
    gate = threading.Event()
    with _pool(backend=backend, max_workers=2) as rt:
        head = _parked_future(gate)
        first, second = _inc(head), _double(head)
        pushed = []
        push = rt._push
        rt._push = lambda marked: (pushed.extend(marked), push(marked))
        gate.set()
        assert wait_on([first, second]) == [2, 2]
        rt.barrier()
    assert [inst.task_id for inst in pushed] == [second.task_id]


@BACKENDS
def test_a_queued_task_of_higher_priority_runs_before_the_kept_child(backend):
    """A child is kept only while nothing queued outranks it: on a
    one-worker pool the queued urgent task runs first."""
    gate = threading.Event()
    hold, started = _holding(gate)
    with _pool(backend=backend, max_workers=1) as rt:
        child = _inc(hold())
        assert started.wait(10)
        urgent = _urgent(7)
        gate.set()
        assert child.result(timeout=10) == 1
        assert urgent.result(timeout=10) == 7
        rt.barrier()
        records = {r.name: r for r in rt.trace()}
    assert records["_urgent"].t_dispatch < records["_inc"].t_dispatch


@BACKENDS
def test_wait_on_mid_chain_returns_before_the_chain_tail_runs(backend):
    """The waiter runs the chain up to what it waits for and no
    further: the next link, kept by the completion of the awaited one,
    goes back to the queue, and the tail runs only once the held worker
    is free."""
    gate = threading.Event()
    hold, started = _holding(gate)

    @task(returns=1)
    def inc(x):  # no call has completed: the head queues, not runs here
        return x + 1

    with _pool(backend=backend, max_workers=1) as rt:
        hold()
        assert started.wait(10)
        links = _chain(inc(0), 9, inc)
        assert wait_on(links[4]) == 5
        nxt = rt._by_root[links[5].task_id]
        assert nxt.state == "ready"
        assert [entry[-1] for entry in rt._ready] == [nxt]
        assert not any(f.done for f in links[5:])
        gate.set()
        assert wait_on(links[-1]) == 10


class _Crash(BaseException):
    """Escapes a task body: kills the workflow."""


@BACKENDS
def test_a_kill_in_mid_chain_strands_no_kept_child(backend):
    """A waiter running a chain holds the next link when the kill lands
    elsewhere: its wait raises, the link goes back to the queue, and the
    worker that is left runs the rest of the chain."""
    gate, crash = threading.Event(), threading.Event()
    hold, held = _holding(gate)
    crashing = threading.Event()

    @task(returns=1)
    def crasher():
        crashing.set()
        crash.wait(10)
        raise _Crash("kill")

    with _pool(backend=backend, max_workers=2) as rt:

        @task(returns=1)
        def tripwire(x):
            crash.set()
            deadline = time.monotonic() + 10
            while rt._killed is None and time.monotonic() < deadline:
                time.sleep(0.001)
            return x + 1

        hold()
        crasher()
        assert held.wait(10) and crashing.wait(10)
        links = _chain(tripwire(_inc(0)), 10)
        with pytest.raises(_Crash):
            wait_on(links[-1])  # this thread runs the chain up to the kill
        gate.set()
        assert links[-1].result(timeout=10) == 12
        assert rt.check_invariants(quiesced=True) == []


@BACKENDS
def test_a_long_released_chain_runs_in_a_loop_not_by_recursion(backend):
    gate = threading.Event()
    with _pool(backend=backend, max_workers=2) as rt:
        tail = _chain(_parked_future(gate), 10_000)[-1]
        gate.set()
        assert tail.result(timeout=120) == 10_001
        rt.barrier()
        assert rt.check_invariants(quiesced=True) == []


def test_shutdown_tears_down_before_it_raises_a_kill():
    """A kill that cut the drain short is raised after the teardown:
    threads joined, the store shut down, the runtime marked shut down.
    The drain is cut short by a task still running when the kill lands
    (the killed task itself retires failed)."""

    @task(returns=1)
    def die():
        raise WorkflowKilledError("killed mid-run")

    gate = threading.Event()
    hold, started = _holding(gate)
    rt = Runtime(executor="threads", max_workers=2)
    rt.put(np.arange(4.0))
    rt.submit(hold.spec, (), {})
    assert started.wait(10)
    rt.submit(die.spec, (), {})
    deadline = time.monotonic() + 10
    while rt._killed is None and time.monotonic() < deadline:
        time.sleep(0.001)
    threading.Timer(0.2, gate.set).start()
    with pytest.raises(WorkflowKilledError):
        rt.shutdown(wait=True)
    assert rt._shutdown
    assert not any(t.is_alive() for t in rt._threads)
    assert rt.store.closed


@pytest.mark.parametrize("executor", ["threads", "sequential"])
def test_a_killed_body_retires_its_attempt_and_cancels_its_dependents(executor):
    """A body raising ``WorkflowKilledError`` fails its own attempt and
    cancels its dependents, with the kill at the root of their errors:
    nothing is left running or pending for ``result()`` to block on, a
    wait on them raises the kill, and ``shutdown()`` leaves a clean
    quiesced audit."""

    @task(returns=1)
    def die():
        raise WorkflowKilledError("killed mid-run")

    rt = Runtime(config=RuntimeConfig(executor=executor, max_workers=2))
    engine.push_runtime(rt)
    try:
        with pytest.raises(WorkflowKilledError):
            wait_on(die())  # sequential: raised by the submission itself
        (attempt,) = rt._tasks.values()
        with pytest.raises(TaskExecutionError) as failed:
            attempt.futures[0].result(timeout=5)
        assert isinstance(failed.value.__cause__, WorkflowKilledError)
        dependent = _inc(attempt.futures[0])
        with pytest.raises(WorkflowKilledError):
            wait_on(dependent)
        with pytest.raises(CancelledTaskError) as cancelled:
            dependent.result(timeout=5)
        assert cancelled.value.__cause__ is failed.value
    finally:
        engine.pop_runtime(rt)
    rt.shutdown()
    assert attempt.state == "failed"
    assert rt.unfinished == 0
    assert rt.check_invariants(quiesced=True) == []


# ----------------------------------------------------------------------
# a task too small to hand off runs on the thread that submits it
# ----------------------------------------------------------------------
def _tiny():
    """A fresh no-op task: a spec no call has completed yet."""

    @task(returns=1)
    def tiny(x):
        return x

    return tiny


@task(returns=1)
def _tiny_module_level(x):
    """A no-op pool workers can import, so ``processes`` really ships it."""
    return x


def _notifies(rt) -> int:
    return rt.stats()["scheduler"]["notifies"]


def _record(rt, fut):
    return next(r for r in rt.trace() if r.task_id == fut.task_id)


def _ready_rows(rt, fut) -> int:
    return sum(
        1
        for row in obs.lifecycle_events(rt._attempts())
        if row["kind"] == "ready" and row["task_id"] == fut.task_id
    )


@BACKENDS
def test_a_warm_tiny_spec_runs_on_the_submitting_thread(backend):
    """With its estimate below the threshold, a task ready at submission
    runs inside ``submit`` under threads: done when the call returns, on
    this thread, with its one READY row and no notify.  Under processes
    it is queued and notified."""
    tiny = _tiny()
    warm(tiny, 0)
    with _pool(backend=backend, max_workers=2) as rt:
        before = _notifies(rt)
        f = tiny(7)
        done_at_return, notifies = f.done, _notifies(rt) - before
        assert wait_on(f) == 7
        rt.barrier()
        record, ready_rows = _record(rt, f), _ready_rows(rt, f)
        assert rt.check_invariants(quiesced=True) == []
    assert ready_rows == 1
    assert record.t_ready is not None and record.t_ready <= record.t_dispatch
    if backend == "threads":
        assert done_at_return and notifies == 0
        assert record.worker == threading.current_thread().name
    else:
        assert notifies == 1


@BACKENDS
def test_a_specs_first_call_is_dispatched(backend):
    """A spec no call has completed has no estimate: its first call is
    queued and notified.  Once warm, the next call runs here under
    threads; under processes it is queued still."""
    tiny = _tiny()
    assert tiny.spec.body_estimate is None
    with _pool(backend=backend, max_workers=2) as rt:
        before = _notifies(rt)
        first = tiny(1)
        first_notifies = _notifies(rt) - before
        assert wait_on(first) == 1
        warm(tiny, 0)
        before = _notifies(rt)
        second = tiny(2)
        second_done, second_notifies = second.done, _notifies(rt) - before
        assert wait_on(second) == 2
    assert first_notifies == 1
    if backend == "threads":
        assert second_done and second_notifies == 0
    else:
        assert second_notifies == 1


@BACKENDS
def test_what_the_rule_excludes_is_dispatched(backend):
    """Queued despite a warm spec: a body estimated above the threshold,
    a call with a ``time_out`` (its body needs the watchdog's thread),
    and a call a queued task outranks.  A call that outranks the queue
    still runs here under threads."""
    tiny, urgent = _tiny(), _tiny()
    gate = threading.Event()
    hold, started = _holding(gate)

    @task(returns=1)
    def slow(x):
        time.sleep(0.001)
        return x

    warm(tiny, 0)
    with Runtime(executor="sequential"):
        slow(0)
    assert slow.spec.body_estimate > engine.INLINE_BELOW_S
    with _pool(backend=backend, max_workers=1) as rt:
        pushed = []
        push = rt._push
        rt._push = lambda marked: (pushed.extend(marked), push(marked))
        held = hold()
        assert started.wait(10)
        excluded = [
            slow(1),
            tiny.opts(time_out=5)(2),
            urgent.opts(priority=5)(3),  # cold: queued, and outranks tiny
            tiny(4),
        ]
        control = tiny.opts(priority=9)(5)
        control_done = control.done
        gate.set()
        assert wait_on([*excluded, control]) == [1, 2, 3, 4, 5]
    queued = [inst.task_id for inst in pushed if inst.task_id != held.task_id]
    assert [f.task_id for f in excluded] == [i for i in queued if i != control.task_id]
    if backend == "threads":
        assert control_done and control.task_id not in queued
    else:
        assert control.task_id in queued


@BACKENDS
def test_nothing_runs_inline_under_processes(backend):
    """A warm tiny task a worker can import: under processes it is
    queued, notified and shipped to a worker process; under threads it
    runs inside ``submit``, in this process."""
    warm(_tiny_module_level, 0)
    with _pool(backend=backend, max_workers=2, collect_trace=True) as rt:
        before = _notifies(rt)
        f = _tiny_module_level(3)
        notifies = _notifies(rt) - before
        assert wait_on(f) == 3
        rt.barrier()
        record = _record(rt, f)
    if backend == "threads":
        assert notifies == 0 and record.pid == os.getpid()
        assert record.worker == threading.current_thread().name
    else:
        assert notifies == 1 and record.pid != os.getpid()


@BACKENDS
def test_a_tiny_body_that_submits_tiny_children_drains_its_pending(backend):
    """Tiny children submitted by a body run on the body's thread under
    threads, inside each ``submit``: the attempt's pending count is back
    to zero before the body returns, with nothing to wait for.  Under
    processes the children queue and the body waits for them."""
    child = _tiny()
    warm(child, 0)

    @task(returns=1)
    def parent(n):
        futures = [child(i) for i in range(n)]
        return active._tls.bound._pending, all(f.done for f in futures)

    with _pool(backend=backend, max_workers=2) as rt:
        before = _notifies(rt)
        f = parent(4)
        seen = wait_on(f)
        rt.barrier()
        notifies = _notifies(rt) - before
        records = list(rt.trace())
        assert rt._by_root[f.task_id]._pending == 0
        assert rt.check_invariants(quiesced=True) == []
    parent_rec = next(r for r in records if r.task_id == f.task_id)
    kids = [r for r in records if r.parent_id == f.task_id]
    assert len(kids) == 4
    if backend == "threads":
        assert seen == (0, True) and notifies == 1  # the parent's own push
        assert {r.worker for r in kids} == {parent_rec.worker}
    else:
        assert notifies >= 1 + 4  # each child pushed (a waiter may add its baton)


@BACKENDS
def test_an_abort_racing_an_inline_run_leaves_the_audit_clean(backend):
    """The abort lands between a small task being marked READY and this
    thread running it: the run finds it cancelled, its body never runs,
    its future raises, and the queue and the quiesced audit stay
    clean."""
    ran: list[int] = []

    @task(returns=1)
    def noted(x):
        ran.append(x)
        return x

    warm(noted, 0)
    ran.clear()
    callers: list[str] = []
    with pytest.raises(engine.WorkflowAbortedError):
        with _pool(backend=backend, max_workers=2) as rt:
            execute = rt._execute

            def spy(inst, *args, **kwargs):
                callers.append(threading.current_thread().name)
                return execute(inst, *args, **kwargs)

            def mark_then_abort(inst):
                marked = Runtime._mark_ready(rt, inst)
                rt._abort(_aborting_error())
                return marked

            rt._execute, rt._mark_ready = spy, mark_then_abort
            f = noted(1)
            del rt._mark_ready
            with pytest.raises(CancelledTaskError):
                f.result(timeout=5)
            assert rt.stats()["ready_queue"] == 0
            rt.barrier()
    assert ran == []
    assert rt.check_invariants(quiesced=True) == []
    main = threading.current_thread().name
    assert callers == ([main] if backend == "threads" else [])
