"""on_failure policy semantics, under both executors."""

from __future__ import annotations

import threading

import pytest

from repro.runtime import (
    CANCEL_SUCCESSORS,
    FAIL,
    IGNORE,
    RETRY,
    CancelledTaskError,
    Runtime,
    TaskDefinitionError,
    TaskExecutionError,
    WorkflowAbortedError,
    task,
    wait_on,
)

EXECUTORS = ["sequential", "threads"]


@pytest.mark.parametrize("executor", EXECUTORS)
def test_cancel_successors_is_default(executor):
    """Default policy: descendants cancelled, independent branch lives."""

    @task(returns=1)
    def bad():
        raise ValueError("boom")

    @task(returns=1)
    def child(v):
        return v

    @task(returns=1)
    def independent():
        return 99

    with Runtime(executor=executor):
        c = child(bad())
        ok = independent()
        with pytest.raises((TaskExecutionError, CancelledTaskError)):
            wait_on(c)
        assert wait_on(ok) == 99


@pytest.mark.parametrize("executor", EXECUTORS)
def test_fail_aborts_whole_workflow(executor):
    @task(returns=1, on_failure=FAIL)
    def fatal():
        raise RuntimeError("die")

    @task(returns=1)
    def other(v):
        return v

    with Runtime(executor=executor) as rt:
        f = fatal()
        with pytest.raises(TaskExecutionError):
            wait_on(f)
        assert rt.aborted is not None
        with pytest.raises(WorkflowAbortedError):
            other(1)
        with pytest.raises(WorkflowAbortedError):
            rt.barrier()


def test_fail_abort_chains_the_failure_into_every_cancellation():
    """A task cancelled by a FAIL abort names the failed task and chains
    its error, as a dependent cancelled under CANCEL_SUCCESSORS does."""
    gate = threading.Event()

    @task(returns=1, on_failure=FAIL)
    def fatal():
        gate.wait(10.0)
        raise RuntimeError("die")

    @task(returns=1)
    def other(v):
        return v

    with Runtime(executor="threads", max_workers=2):
        f = fatal()
        dependent = other(f)
        gate.set()
        with pytest.raises(TaskExecutionError):
            wait_on(f)
        with pytest.raises(CancelledTaskError) as excinfo:
            wait_on(dependent)
    error = excinfo.value
    assert str(error) == (
        f"task {dependent.task_id} was cancelled: upstream fatal#{f.task_id} failed"
    )
    assert isinstance(error.__cause__, TaskExecutionError)
    assert (error.__cause__.task_name, error.__cause__.task_id) == ("fatal", f.task_id)
    assert isinstance(error.__cause__.__cause__, RuntimeError)


@pytest.mark.parametrize("executor", EXECUTORS)
def test_ignore_resolves_to_default_and_runs_successors(executor):
    @task(returns=1, on_failure=IGNORE, failure_default=-1)
    def bad():
        raise ValueError("swallowed")

    @task(returns=1)
    def child(v):
        return v * 10

    with Runtime(executor=executor) as rt:
        out = wait_on(child(bad()))
        assert out == -10
        assert rt.stats()["ignored_failures"] == 1


@pytest.mark.parametrize("executor", EXECUTORS)
def test_ignore_multi_return_default_shapes(executor):
    @task(returns=2, on_failure=IGNORE, failure_default=(7, 8))
    def bad2():
        raise ValueError("x")

    with Runtime(executor=executor):
        a, b = bad2()
        assert wait_on(a) == 7
        assert wait_on(b) == 8


@pytest.mark.parametrize("executor", EXECUTORS)
def test_retry_policy_uses_config_default_budget(executor):
    calls = {"n": 0}

    @task(returns=1, on_failure=RETRY)
    def flaky():
        calls["n"] += 1
        if calls["n"] < 3:
            raise OSError("transient")
        return 5

    # default_max_retries=2 -> three attempts in total
    with Runtime(executor=executor):
        assert wait_on(flaky()) == 5
    assert calls["n"] == 3


@pytest.mark.parametrize("executor", EXECUTORS)
def test_retry_exhaustion_falls_back_to_cancel(executor):
    @task(returns=1, on_failure=RETRY, max_retries=1)
    def always_bad():
        raise ValueError("permanent")

    @task(returns=1)
    def child(v):
        return v

    with Runtime(executor=executor) as rt:
        c = child(always_bad())
        with pytest.raises((TaskExecutionError, CancelledTaskError)):
            wait_on(c)
        assert rt.stats()["retries"] == 1
        assert rt.aborted is None


def test_unknown_policy_rejected():
    with pytest.raises(TaskDefinitionError):

        @task(returns=1, on_failure="EXPLODE")
        def f():
            return 1


def test_retry_attempts_are_distinct_graph_nodes():
    calls = {"n": 0}

    @task(returns=1, max_retries=2)
    def flaky():
        calls["n"] += 1
        if calls["n"] < 3:
            raise OSError("transient")
        return 1

    with Runtime(executor="sequential") as rt:
        wait_on(flaky())
        trace = rt.trace()
        graph = rt.graph.snapshot()
    attempts = sorted(trace.records(name="flaky"), key=lambda r: r.attempt)
    assert [r.attempt for r in attempts] == [0, 1, 2]
    assert [r.status for r in attempts] == ["failed", "failed", "done"]
    # each attempt is its own node, chained by retry edges
    ids = [r.task_id for r in attempts]
    assert len(set(ids)) == 3
    for prev, nxt in zip(ids, ids[1:]):
        assert graph.edges[prev, nxt]["kind"] == "retry"


def test_cancellation_propagates_in_dependency_order():
    """Transitive descendants of a failed task are all cancelled."""

    @task(returns=1)
    def bad():
        raise ValueError("boom")

    @task(returns=1)
    def step(v):
        return v

    with Runtime(executor="sequential") as rt:
        a = step(bad())
        b = step(a)
        c = step(b)
        for fut in (a, b, c):
            with pytest.raises((TaskExecutionError, CancelledTaskError)):
                wait_on(fut)
        states = rt.stats()["by_state"]
        assert states == {"failed": 1, "cancelled": 3}
