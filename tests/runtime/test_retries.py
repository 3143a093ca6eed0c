"""Task retry semantics."""

from __future__ import annotations

import pytest

from repro.runtime import (
    Runtime,
    TaskDefinitionError,
    TaskExecutionError,
    current_attempt,
    task,
    wait_on,
)


def flaky_maker(failures: int):
    state = {"left": failures}

    @task(returns=1, max_retries=failures)
    def flaky(x):
        if state["left"] > 0:
            state["left"] -= 1
            raise OSError("transient")
        return x * 2

    return flaky


def test_retry_recovers_transient_failure():
    flaky = flaky_maker(2)
    with Runtime(executor="sequential"):
        assert wait_on(flaky(21)) == 42


def test_retry_exhaustion_fails():
    state = {"calls": 0}

    @task(returns=1, max_retries=2)
    def always_bad():
        state["calls"] += 1
        raise ValueError("permanent")

    with Runtime(executor="sequential"):
        f = always_bad()
        with pytest.raises(TaskExecutionError):
            wait_on(f)
    assert state["calls"] == 3  # initial + 2 retries


def test_retry_under_threads():
    flaky = flaky_maker(1)
    with Runtime(executor="threads", max_workers=2):
        assert wait_on(flaky(5)) == 10


def test_retry_zero_is_default():
    state = {"calls": 0}

    @task(returns=1)
    def once():
        state["calls"] += 1
        raise ValueError("no retry")

    with Runtime(executor="sequential"):
        f = once()
        with pytest.raises(TaskExecutionError):
            wait_on(f)
    assert state["calls"] == 1


def test_negative_retries_rejected():
    with pytest.raises(TaskDefinitionError):

        @task(returns=1, max_retries=-1)
        def f(x):
            return x


def test_no_runtime_retries_still_apply():
    flaky = flaky_maker(1)
    assert flaky(3) == 6


# ----------------------------------------------------------------------
# the runtime-less path follows the engine's failure semantics
# ----------------------------------------------------------------------
@task(returns=1, max_retries=1)
def _fails_before_attempt_1():
    if current_attempt() < 1:
        raise OSError(f"transient at attempt {current_attempt()}")
    return 1


@task(returns=1, on_failure="RETRY")
def _fails_twice_under_retry_policy():
    if current_attempt() < 2:
        raise OSError(f"transient at attempt {current_attempt()}")
    return current_attempt() + 1


def test_no_runtime_retries_advance_current_attempt():
    with Runtime(executor="sequential"):
        assert wait_on(_fails_before_attempt_1()) == 1
    assert _fails_before_attempt_1() == 1
    assert current_attempt() == 0


def test_no_runtime_retry_policy_gets_the_default_budget():
    """``on_failure="RETRY"`` without ``max_retries`` retries
    ``DEFAULT_MAX_RETRIES`` times with or without a runtime."""
    with Runtime(executor="sequential"):
        assert wait_on(_fails_twice_under_retry_policy()) == 3
    assert _fails_twice_under_retry_policy() == 3


def _ignoring(returns, default):
    @task(returns=returns, on_failure="IGNORE", failure_default=default)
    def broken():
        raise ValueError("ignored")

    return broken


@pytest.mark.parametrize("shape", ["scalar", "matching-tuple", "short-tuple"])
@pytest.mark.parametrize("returns", [1, 2, 3])
def test_ignore_default_is_shaped_alike_with_and_without_a_runtime(returns, shape):
    default = {
        "scalar": -1,
        "matching-tuple": tuple(range(10, 10 + returns)),
        "short-tuple": tuple(range(10, 10 + returns - 1)),
    }[shape]
    broken = _ignoring(returns, default)
    with Runtime(executor="sequential"):
        expected = wait_on(broken())
    assert broken() == expected
