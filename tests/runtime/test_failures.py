"""Failure propagation and cancellation."""

from __future__ import annotations

import threading

import pytest

from repro.runtime import (
    CancelledTaskError,
    Runtime,
    RuntimeStateError,
    TaskExecutionError,
    task,
    wait_on,
)


@task(returns=1)
def boom(x):
    raise ValueError(f"bad value {x}")


@task(returns=1)
def ident(x):
    return x


def test_error_surfaces_on_wait_on_threads():
    with Runtime(executor="threads", max_workers=2):
        f = boom(3)
        with pytest.raises(TaskExecutionError) as excinfo:
            wait_on(f)
    assert "boom" in str(excinfo.value)
    assert isinstance(excinfo.value.__cause__, ValueError)


def test_error_surfaces_on_wait_on_sequential():
    with Runtime(executor="sequential"):
        f = boom(3)
        with pytest.raises(TaskExecutionError):
            wait_on(f)


def test_downstream_cancelled_after_failure():
    with Runtime(executor="threads", max_workers=2):
        f = boom(1)
        g = ident(f)
        h = ident(g)
        with pytest.raises((TaskExecutionError, CancelledTaskError)):
            wait_on(h)


#: Holds ``gated_boom`` until the test has submitted its dependents.
_gate = threading.Event()


@task(returns=1)
def gated_boom(x):
    _gate.wait(10.0)
    raise ValueError(f"bad value {x}")


@pytest.mark.parametrize(
    "executor, gated",
    [("sequential", False), ("threads", False), ("threads", True)],
)
def test_cancelled_dependent_names_and_chains_its_failed_upstream(executor, gated):
    """A three-task chain whose first body raises: the last task's
    cancellation names the failed upstream and chains its error, both
    when the dependents register after the failure (sequential, and
    threads ungated) and when the failure reaches them registered
    (threads, gated)."""
    _gate.clear()
    if not gated:
        _gate.set()
    with Runtime(executor=executor, max_workers=2):
        f = gated_boom(1)
        g = ident(f)
        h = ident(g)
        _gate.set()
        with pytest.raises(CancelledTaskError) as excinfo:
            wait_on(h)
    error = excinfo.value
    assert str(error) == (
        f"task {h.task_id} was cancelled: upstream gated_boom#{f.task_id} failed"
    )
    upstream = error.__cause__
    assert isinstance(upstream, TaskExecutionError)
    assert (upstream.task_name, upstream.task_id) == ("gated_boom", f.task_id)
    assert isinstance(upstream.__cause__, ValueError)
    # the middle task names the same upstream
    with pytest.raises(CancelledTaskError, match=r"^task \d+ was cancelled: upstream gated_boom#"):
        g.result()


def test_failure_does_not_poison_independent_tasks():
    with Runtime(executor="threads", max_workers=2):
        bad = boom(1)
        good = ident(42)
        assert wait_on(good) == 42
        with pytest.raises(TaskExecutionError):
            wait_on(bad)


def test_submit_after_shutdown_rejected():
    rt = Runtime(executor="sequential")
    rt.shutdown()
    with rt_active(rt):
        with pytest.raises(RuntimeStateError):
            ident(1)


class rt_active:
    """Push a runtime without the shutdown-on-exit of the context manager."""

    def __init__(self, rt):
        self.rt = rt

    def __enter__(self):
        from repro.runtime.engine import push_runtime

        push_runtime(self.rt)
        return self.rt

    def __exit__(self, *exc):
        from repro.runtime.engine import pop_runtime

        pop_runtime(self.rt)


def test_wrong_arity_of_returns():
    @task(returns=3)
    def two_not_three(x):
        return x, x

    with Runtime(executor="threads", max_workers=1):
        f, g, h = two_not_three(1)
        with pytest.raises(TaskExecutionError):
            wait_on(f)


def test_failed_task_recorded_in_trace():
    with Runtime(executor="sequential") as rt:
        f = boom(9)
        with pytest.raises(TaskExecutionError):
            wait_on(f)
        trace = rt.trace()
    assert any(r.name == "boom" for r in trace)


def test_nested_failure_propagates_to_parent():
    @task(returns=1)
    def parent(x):
        return wait_on(boom(x))

    with Runtime(executor="threads", max_workers=2):
        f = parent(1)
        with pytest.raises(TaskExecutionError):
            wait_on(f)
