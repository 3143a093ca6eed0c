"""Call-site option overrides via ``my_task.opts(...)``."""

from __future__ import annotations

import pytest

from repro.runtime import (
    Runtime,
    TaskDefinitionError,
    TaskOptions,
    task,
    wait_on,
)


@task(returns=1)
def plain(x):
    return x + 1


def test_opts_label_recorded_in_trace():
    with Runtime(executor="sequential") as rt:
        wait_on(plain.opts(label="fold-3")(1))
        (rec,) = rt.trace().records(name="plain")
    assert rec.label == "fold-3"


def test_opts_overrides_decorator_retries():
    calls = {"n": 0}

    @task(returns=1, max_retries=0)
    def flaky():
        calls["n"] += 1
        if calls["n"] < 2:
            raise OSError("transient")
        return 1

    with Runtime(executor="sequential"):
        assert wait_on(flaky.opts(max_retries=1)()) == 1
    assert calls["n"] == 2


def test_opts_bound_callable_is_reusable_and_exposes_options():
    bound = plain.opts(label="a", priority=3)
    assert isinstance(bound.options, TaskOptions)
    assert bound.options.label == "a"
    assert bound.options.priority == 3
    with Runtime(executor="sequential"):
        assert wait_on(bound(1)) == 2
        assert wait_on(bound(5)) == 6


def test_priority_orders_ready_tasks():
    """With a single blocked worker, the higher-priority submission is
    picked from the ready queue first once the worker frees up."""
    import threading

    gate = threading.Event()
    started = threading.Event()
    order: list[str] = []

    @task(returns=1)
    def blocker():
        started.set()
        gate.wait(5.0)
        return 0

    @task(returns=1)
    def mark(tag):
        order.append(tag)
        return tag

    with Runtime(executor="threads", max_workers=1):
        blocker()
        started.wait(5.0)  # the only worker is now occupied
        lo = mark.opts(label="lo", priority=0)("lo")
        hi = mark.opts(label="hi", priority=10)("hi")
        # wait_on turns this thread into the only free worker; it must
        # drain the ready queue in priority order.
        wait_on([lo, hi])
        gate.set()
    assert order == ["hi", "lo"]


def test_opts_validation_matches_decorator():
    with pytest.raises(TaskDefinitionError):
        plain.opts(on_failure="NOPE")
    with pytest.raises(TaskDefinitionError):
        plain.opts(time_out=-1.0)
