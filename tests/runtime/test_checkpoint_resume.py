"""Crash/resume through the runtime: kill, restart, restore, recompute."""

from __future__ import annotations

import collections
import json

import numpy as np
import pytest

from repro.runtime import Runtime, barrier, task, wait_on
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.config import RuntimeConfig
from repro.runtime.directions import INOUT
from repro.runtime.dot import to_dot
from repro.runtime.exceptions import WorkflowKilledError
from repro.runtime.observability import summarize_trace
from repro.runtime.otlp import otlp_to_traces, save_otlp, trace_to_otlp
from tests.support.faults import fail_before, flip_last_byte

CALLS: list[str] = []
#: ``[n]`` kills the process (WorkflowKilledError) in the body that
#: would be the (n+1)-th to run; empty = no kill.  Like CALLS, it lives
#: in this process: the tests run these tasks in-process.
KILL_AFTER: list[int] = []


def ran(call: str) -> None:
    if KILL_AFTER and len(CALLS) >= KILL_AFTER[0]:
        raise WorkflowKilledError(f"workflow killed after {KILL_AFTER[0]} tasks")
    CALLS.append(call)


@task(returns=1)
def load(i):
    ran(f"load-{i}")
    return np.arange(8.0) + i


@task(returns=1)
def step(block):
    ran("step")
    return np.asarray(block) * 2.0


@task(returns=1)
def merge(a, b):
    ran("merge")
    return float(np.asarray(a).sum() + np.asarray(b).sum())


def run_chain(executor="sequential", config=None):
    with Runtime(executor=executor, config=config) as rt:
        total = wait_on(merge(step(load(0)), step(load(1))))
        return total, rt.trace(), rt.stats(), rt.graph


@pytest.fixture(autouse=True)
def _reset_calls():
    CALLS.clear()
    KILL_AFTER.clear()
    yield
    KILL_AFTER.clear()


def killed_run(n, executor="sequential", config=None):
    """run_chain with the process killed after *n* tasks."""
    KILL_AFTER.append(n)
    try:
        with pytest.raises(WorkflowKilledError):
            run_chain(executor=executor, config=config)
    finally:
        KILL_AFTER.clear()


def cfg(tmp_path, **kw):
    return RuntimeConfig(executor="sequential", checkpoint_dir=str(tmp_path / "ckpt"), **kw)


class TestResume:
    def test_cold_run_writes_then_warm_run_restores(self, tmp_path):
        config = cfg(tmp_path)
        total1, trace1, stats1, _ = run_chain(config=config)
        assert stats1["checkpointing"] is True
        assert stats1["checkpoint_writes"] == 5
        assert stats1["restored"] == 0
        executed_cold = len(CALLS)

        CALLS.clear()
        total2, trace2, stats2, _ = run_chain(config=config)
        assert total2 == total1
        assert CALLS == []  # nothing re-executed
        assert stats2["restored"] == 5
        # a restored attempt terminates as done
        assert stats2["by_state"] == {"done": 5}
        assert stats2["checkpoint_writes"] == 0
        assert trace2.n_restored == 5
        assert trace2.n_executed == 0
        assert trace1.n_executed == executed_cold

    def test_restored_records_have_zero_duration_and_ok(self, tmp_path):
        config = cfg(tmp_path)
        run_chain(config=config)
        _, trace, _, _ = run_chain(config=config)
        for rec in trace:
            assert rec.status == "restored"
            assert rec.ok
            assert not rec.executed
            assert rec.duration == 0.0
        assert trace.n_failed_attempts == 0

    def test_kill_then_resume_executes_only_the_rest(self, tmp_path):
        config = cfg(tmp_path)
        killed_run(3, config=config)
        survived = len(CALLS)
        assert survived == 3

        CALLS.clear()
        total, trace, stats, _ = run_chain(config=config)
        # the three completed tasks are replayed, the other two run
        assert stats["restored"] == 3
        assert len(CALLS) == 2
        assert trace.n_restored == 3
        assert trace.n_executed == 2
        # ...and the result matches a clean run
        clean_total, _, _, _ = run_chain()
        assert total == clean_total

    def test_corrupted_entry_is_recomputed(self, tmp_path, caplog):
        config = cfg(tmp_path)
        run_chain(config=config)
        # corrupt exactly one entry on disk
        store_dir = tmp_path / "ckpt" / "entries"
        victim = sorted(store_dir.glob("*.ckpt"))[0]
        flip_last_byte(victim)

        CALLS.clear()
        with caplog.at_level("WARNING", logger="repro.runtime.checkpoint"):
            total, trace, stats, _ = run_chain(config=config)
        assert any("corrupt" in r.message for r in caplog.records)
        # One entry recomputes.  Depending on which entry was corrupted,
        # the recomputed task's downstream signatures still match (keys
        # are lineage-based), so everything else restores.
        assert stats["restored"] == 4
        assert len(CALLS) == 1
        assert stats["checkpoint_writes"] == 1  # the recomputed entry
        clean_total, _, _, _ = run_chain()
        assert total == clean_total

    def test_corrupted_step_entry_recomputes_only_step(self, tmp_path, caplog):
        config = cfg(tmp_path)
        run_chain(config=config)
        store = CheckpointStore(tmp_path / "ckpt")
        victim = next(e for e in store.entries() if e.task == "step")
        flip_last_byte(victim.path)

        CALLS.clear()
        with caplog.at_level("WARNING", logger="repro.runtime.checkpoint"):
            _, _, stats, _ = run_chain(config=config)
        assert stats["restored"] == 4
        assert CALLS == ["step"]

    def test_without_store_nothing_checkpoints(self, tmp_path):
        _, _, stats, _ = run_chain()
        assert stats["checkpointing"] is False
        assert stats["checkpoint_writes"] == 0
        assert stats["restored"] == 0

    def test_threads_executor_also_resumes(self, tmp_path):
        config = RuntimeConfig(executor="threads", checkpoint_dir=str(tmp_path / "ckpt"))
        total1, _, _, _ = run_chain(executor="threads", config=config)
        CALLS.clear()
        total2, _, stats, _ = run_chain(executor="threads", config=config)
        assert total2 == total1
        assert CALLS == []
        assert stats["restored"] == 5

    def test_threads_executor_kill_reaches_the_driver(self, tmp_path):
        # A kill firing on a worker thread must re-raise in the waiting
        # driver thread, not silently kill the worker and hang wait_on.
        config = RuntimeConfig(executor="threads", checkpoint_dir=str(tmp_path / "ckpt"))
        killed_run(2, executor="threads", config=config)

        CALLS.clear()
        with Runtime(executor="threads", config=config) as rt:
            total = wait_on(merge(step(load(0)), step(load(1))))
            barrier()  # drain in-flight siblings before snapshotting
            trace, stats = rt.trace(), rt.stats()
        clean_total, _, _, _ = run_chain()
        assert total == clean_total
        assert stats["restored"] >= 2
        assert trace.n_restored + trace.n_executed == 5


class TestEligibility:
    def test_opt_out_per_task(self, tmp_path):
        @task(returns=1, checkpoint=False)
        def roll(n):
            CALLS.append("roll")
            return n * 3

        config = cfg(tmp_path)
        with Runtime(config=config):
            assert wait_on(roll(2)) == 6
        with Runtime(config=config) as rt:
            assert wait_on(roll(2)) == 6
            assert rt.stats()["restored"] == 0
        assert CALLS == ["roll", "roll"]

    def test_tasks_with_writes_never_checkpoint(self, tmp_path):
        class Bag:
            def __init__(self):
                self.items = []

        @task(returns=1, acc=INOUT)
        def accumulate(acc, v):
            acc.items.append(v)
            return sum(acc.items)

        config = cfg(tmp_path)
        bag1, bag2 = Bag(), Bag()
        with Runtime(config=config):
            assert wait_on(accumulate(bag1, 5)) == 5
        with Runtime(config=config) as rt:
            assert wait_on(accumulate(bag2, 5)) == 5
            assert rt.stats()["checkpoint_writes"] == 0
        # the side effect happened both times (never replayed away)
        assert bag1.items == [5] and bag2.items == [5]

    def test_zero_return_tasks_never_checkpoint(self, tmp_path):
        @task(returns=0)
        def fire(x):
            CALLS.append("fire")

        config = cfg(tmp_path)
        with Runtime(config=config) as rt:
            fire(1)
            rt.barrier()
            assert rt.stats()["checkpoint_writes"] == 0

    def test_unfingerprintable_argument_skips_checkpointing(self, tmp_path):
        @task(returns=1)
        def probe(fn):
            CALLS.append("probe")
            return fn(3)

        config = cfg(tmp_path)
        for _ in range(2):
            with Runtime(config=config) as rt:
                assert wait_on(probe(lambda v: v + 1)) == 4
                assert rt.stats()["checkpoint_writes"] == 0
        assert CALLS == ["probe", "probe"]

    def test_repeated_identical_calls_stay_distinct(self, tmp_path):
        @task(returns=1)
        def draw(seed):
            CALLS.append("draw")
            return len(CALLS)

        config = cfg(tmp_path)
        with Runtime(config=config):
            a, b = wait_on([draw(0), draw(0)])
        assert (a, b) == (1, 2)  # two executions, not one cached
        CALLS.clear()
        with Runtime(config=config):
            a2, b2 = wait_on([draw(0), draw(0)])
        # call lineage replays each occurrence with its own value
        assert (a2, b2) == (1, 2)
        assert CALLS == []


class TestRetryInteraction:
    def test_successful_retry_checkpoints_once(self, tmp_path):
        @task(returns=1, max_retries=2)
        def flaky(x):
            CALLS.append("flaky")
            fail_before(1, "flaky")
            return x + 1

        config = cfg(tmp_path)
        with Runtime(config=config) as rt:
            assert wait_on(flaky(1)) == 2
            assert rt.stats()["checkpoint_writes"] == 1
        assert CALLS == ["flaky", "flaky"]
        CALLS.clear()
        with Runtime(config=config) as rt:
            assert wait_on(flaky(1)) == 2
            assert rt.stats()["restored"] == 1
        assert CALLS == []


class TestReporting:
    def test_provenance_separates_restored_from_executed(self, tmp_path):
        config = cfg(tmp_path)
        run_chain(config=config)
        _, trace, _, _ = run_chain(config=config)
        summary = summarize_trace(trace)
        assert summary["n_restored"] == 5
        restored = collections.Counter(r.name for r in trace.records(status="restored"))
        assert restored == {"load": 2, "step": 2, "merge": 1}
        # restored attempts never ran: no executed attempt, no work
        assert summary["n_executed"] == 0 and summary["work"] == 0.0

    def test_dot_marks_restored_nodes(self, tmp_path):
        config = cfg(tmp_path)
        run_chain(config=config)
        _, _, _, graph = run_chain(config=config)
        dot = to_dot(graph)
        assert dot.count("peripheries=2") == 5
        assert "restored" in dot

    def test_trace_roundtrips_restored_status(self, tmp_path):
        config = cfg(tmp_path)
        run_chain(config=config)
        _, trace, _, _ = run_chain(config=config)
        path = tmp_path / "trace.json"
        save_otlp(trace_to_otlp(trace), path)
        ((_, loaded),) = otlp_to_traces(json.loads(path.read_text()))
        assert loaded.n_restored == 5
        assert [r.status for r in loaded] == [r.status for r in trace]


class TestFaultRules:
    def test_kill_fires_on_the_n_plus_first_execution(self, tmp_path):
        config = cfg(tmp_path)
        killed_run(0, config=config)
        assert CALLS == []  # the very first execution died
        # nothing completed, so nothing was persisted to resume from
        assert list(CheckpointStore(tmp_path / "ckpt").entries()) == []
