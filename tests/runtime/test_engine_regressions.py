"""Regression tests for engine fixes: all-scope shutdown drain, the
condition-variable wait replacing the busy-loop, record-before-publish,
barrier on a killed or aborted runtime, no READY after an abort's
cancel and payload release at retirement."""

from __future__ import annotations

import gc
import sys
import threading
import time
import weakref

import pytest

from repro.runtime import Runtime, task, wait_on
from repro.runtime import engine
from repro.runtime.backends import current_attempt
from repro.runtime.config import RuntimeConfig


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
        # a fresh thread gets its own scope, distinct from the root one
        engine._tls.scope = engine.Scope(rt)
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

    cfg = RuntimeConfig(executor="threads", max_workers=1, debug_invariants=True)
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
