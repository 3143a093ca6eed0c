"""Fault-injection harness: determinism and runtime recovery."""

from __future__ import annotations

import pytest

from repro.runtime import (
    FaultInjectedError,
    Runtime,
    TaskExecutionError,
    faults,
    task,
    wait_on,
)


def test_injected_failures_recovered_by_retries():
    """Acceptance: the injector fails the task twice; the runtime's
    third attempt succeeds and all three attempts are in the trace."""

    @task(returns=1, max_retries=3)
    def train(x):
        return x * 2

    with faults.inject(faults.fail_nth("train", 1, 2)) as injector:
        with Runtime(executor="threads") as rt:
            assert wait_on(train(21)) == 42
            trace = rt.trace()
    records = sorted(trace.records(name="train"), key=lambda r: r.attempt)
    assert [r.attempt for r in records] == [0, 1, 2]
    assert [r.status for r in records] == ["failed", "failed", "done"]
    # the trace links the attempt chain
    chain = trace.attempts_of(records[0].task_id)
    assert [r.task_id for r in chain] == [r.task_id for r in records]
    assert injector.log == [("train", 1, "fail"), ("train", 2, "fail")]


def test_fail_nth_counts_per_task_name():
    @task(returns=1)
    def a(x):
        return x

    @task(returns=1)
    def b(x):
        return x

    with faults.inject(faults.fail_nth("a", 2)):
        with Runtime(executor="sequential"):
            assert wait_on(a(1)) == 1  # execution 1 passes
            assert wait_on(b(1)) == 1  # other names unaffected
            f = a(2)  # execution 2 of "a" fails
            with pytest.raises(TaskExecutionError) as exc_info:
                wait_on(f)
    assert isinstance(exc_info.value.__cause__, FaultInjectedError)


def test_injection_scope_is_the_context_manager():
    @task(returns=1)
    def t(x):
        return x

    with faults.inject(faults.fail_nth("t", 1)):
        with Runtime(executor="sequential"):
            f = t(0)
            with pytest.raises(TaskExecutionError):
                wait_on(f)
    # outside the with-block the task is healthy again
    with Runtime(executor="sequential"):
        assert wait_on(t(3)) == 3


def test_random_failures_deterministic_under_fixed_seed():
    def run(seed):
        @task(returns=1, max_retries=50)
        def flaky(i):
            return i

        with faults.inject(faults.random_failures("flaky", 0.4), seed=seed) as inj:
            with Runtime(executor="sequential"):
                for i in range(10):
                    wait_on(flaky(i))
        return list(inj.log)

    assert run(7) == run(7)
    assert run(7) != run(8)
    assert run(7)  # probability 0.4 over >= 10 draws must fire


def test_delay_injection_slows_named_execution():
    @task(returns=1)
    def quick(x):
        return x

    with faults.inject(faults.delay_nth("quick", 1, seconds=0.05)) as inj:
        with Runtime(executor="sequential") as rt:
            wait_on(quick(1))
            (rec,) = rt.trace().records(name="quick")
    assert rec.duration >= 0.045
    assert inj.log == [("quick", 1, "delay 0.05s")]


def test_nested_injectors_compose():
    @task(returns=1, max_retries=4)
    def t(x):
        return x

    with faults.inject(faults.fail_nth("t", 1)) as outer:
        with faults.inject(faults.fail_nth("t", 2)) as inner:
            with Runtime(executor="sequential") as rt:
                assert wait_on(t(9)) == 9
                assert rt.stats()["retries"] == 2
    assert outer.log == [("t", 1, "fail")]
    assert inner.log == [("t", 2, "fail")]


def test_hooks_skip_the_lock_when_no_injector_is_active(monkeypatch):
    """The hooks run on every task execution and checkpoint write of
    every runtime; with nothing injected they must return without
    taking ``_active_lock``."""

    class Untouchable:
        def __enter__(self):
            raise AssertionError("fault hook took _active_lock with no injector active")

        def __exit__(self, *exc):
            return False

    monkeypatch.setattr(faults, "_active_lock", Untouchable())
    faults.on_checkpoint_write("step", "/no/such/entry")
    faults.on_task_execute("step")
    assert faults.worker_kill_requested("step") is False
