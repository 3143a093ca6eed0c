"""Faults written into task bodies (``tests/support/faults.py``): the
runtime recovers from them, and they behave the same on every run."""

from __future__ import annotations

import time

import pytest

from repro.runtime import Runtime, TaskExecutionError, current_attempt, task, wait_on
from tests.support.faults import InjectedFault, coin, fail_before


def test_injected_failures_recovered_by_retries():
    """Acceptance: the body fails its first two attempts; the runtime's
    third attempt succeeds and all three attempts are in the trace."""

    @task(returns=1, max_retries=3)
    def train(x):
        fail_before(2, "train")
        return x * 2

    with Runtime(executor="threads") as rt:
        assert wait_on(train(21)) == 42
        trace = rt.trace()
    records = sorted(trace.records(name="train"), key=lambda r: r.attempt)
    assert [r.attempt for r in records] == [0, 1, 2]
    assert [r.status for r in records] == ["failed", "failed", "done"]
    assert all("InjectedFault" in r.error for r in records[:2])
    # the trace links the attempt chain
    chain = trace.attempts_of(records[0].task_id)
    assert [r.task_id for r in chain] == [r.task_id for r in records]


def test_fail_nth_counts_per_task_name():
    """A fault keyed on a body's argument hits that call only: other
    calls of the task and other tasks are unaffected."""

    @task(returns=1)
    def a(x):
        if x == 2:
            raise InjectedFault("a(2) fails")
        return x

    @task(returns=1)
    def b(x):
        return x

    with Runtime(executor="sequential"):
        assert wait_on(a(1)) == 1
        assert wait_on(b(2)) == 2
        f = a(2)
        with pytest.raises(TaskExecutionError) as exc_info:
            wait_on(f)
    assert isinstance(exc_info.value.__cause__, InjectedFault)


def test_random_failures_deterministic_under_fixed_seed():
    def run(seed):
        @task(returns=1, max_retries=50)
        def flaky(i):
            if coin(seed, i, 0.4):
                raise InjectedFault(f"flaky({i}) attempt {current_attempt()}")
            return i

        with Runtime(executor="sequential") as rt:
            assert wait_on([flaky(i) for i in range(10)]) == list(range(10))
            trace = rt.trace()
        return sorted(r.error for r in trace.records(name="flaky") if r.status == "failed")

    assert run(7) == run(7)
    assert run(7) != run(8)
    assert run(7)  # probability 0.4 over >= 10 draws must fire


def test_delay_injection_slows_named_execution():
    @task(returns=1)
    def quick(x):
        time.sleep(x)
        return x

    with Runtime(executor="sequential") as rt:
        wait_on(quick(0.05))
        (rec,) = rt.trace().records(name="quick")
    assert rec.duration >= 0.045
