"""Checkpoint pricing in the cluster simulator."""

from __future__ import annotations

import pytest

from repro.cluster import (
    CheckpointSpec,
    ClusterSpec,
    NodeFailure,
    NodeSpec,
    failure_report,
    simulate,
)
from repro.runtime.tracing import TaskRecord, Trace


def chain_trace(n=4, dur=1.0):
    """A strict chain of n unit tasks — placement order is the chain order."""
    trace = Trace()
    for i in range(n):
        trace.add(
            TaskRecord(
                task_id=i,
                name="step",
                deps=() if i == 0 else (i - 1,),
                t_start=i * dur,
                t_end=(i + 1) * dur,
            )
        )
    return trace


def one_node():
    return ClusterSpec(n_nodes=1, node=NodeSpec(cores=4, name="unit"))


class TestCheckpointSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            CheckpointSpec(every=0)
        with pytest.raises(ValueError):
            CheckpointSpec(write_cost=-1.0)

    def test_defaults(self):
        spec = CheckpointSpec()
        assert spec.every == 1 and spec.write_cost == 0.0


class TestSimulation:
    def test_every_task_pays_the_write(self):
        trace = chain_trace(n=4)
        base = simulate(trace, one_node())
        ck = simulate(
            trace, one_node(), checkpoint=CheckpointSpec(every=1, write_cost=0.25)
        )
        assert base.makespan == pytest.approx(4.0)
        assert ck.makespan == pytest.approx(5.0)  # 4 tasks + 4 writes
        assert len(ck.checkpoint_writes) == 4
        assert ck.checkpoint_overhead == pytest.approx(1.0)

    def test_every_n_writes_fewer(self):
        trace = chain_trace(n=4)
        ck = simulate(
            trace, one_node(), checkpoint=CheckpointSpec(every=2, write_cost=0.25)
        )
        assert len(ck.checkpoint_writes) == 2
        assert ck.makespan == pytest.approx(4.5)

    def test_write_window_sits_at_the_task_tail(self):
        trace = chain_trace(n=2)
        ck = simulate(
            trace, one_node(), checkpoint=CheckpointSpec(every=1, write_cost=0.5)
        )
        w0 = ck.checkpoint_writes[0]
        assert w0.t_start == pytest.approx(1.0)
        assert w0.t_end == pytest.approx(1.5)
        assert w0.duration == pytest.approx(0.5)

    def test_no_spec_means_no_writes(self):
        result = simulate(chain_trace(), one_node())
        assert result.checkpoint_writes == []
        assert result.checkpoint_spec is None
        assert result.checkpoint_overhead == 0.0

    def test_killed_task_records_no_write(self):
        """A node failure voids the in-flight task's checkpoint write."""
        trace = Trace()
        for i in range(4):
            trace.add(
                TaskRecord(task_id=i, name="work", deps=(), t_start=0.0, t_end=1.0)
            )
        cluster = ClusterSpec(n_nodes=2, node=NodeSpec(cores=2, name="unit"))
        spec = CheckpointSpec(every=1, write_cost=0.25)
        clean = simulate(trace, cluster, checkpoint=spec)
        assert len(clean.checkpoint_writes) == 4

        failed = simulate(
            trace,
            cluster,
            checkpoint=spec,
            failures=[NodeFailure(node=0, at=0.5)],
        )
        # 4 final completions still write; the 2 killed attempts do not
        assert len(failed.checkpoint_writes) == 4
        assert len(failed.failed_placements) == 2
        assert all(w.node == 1 for w in failed.checkpoint_writes)

    def test_empty_trace_keeps_the_spec(self):
        spec = CheckpointSpec(every=3, write_cost=0.1)
        result = simulate(Trace(), one_node(), checkpoint=spec)
        assert result.checkpoint_spec == spec
        assert result.checkpoint_writes == []


class TestReporting:
    def test_failure_report_prices_the_policy(self):
        trace = chain_trace(n=4)
        result = simulate(
            trace, one_node(), checkpoint=CheckpointSpec(every=2, write_cost=0.25)
        )
        report = failure_report(result)
        assert "checkpoint policy  : every 2 task(s), 0.250s per write" in report
        assert "checkpoint writes  : 2 (0.500s overhead)" in report

    def test_failure_report_verdict(self):
        trace = Trace()
        for i in range(4):
            trace.add(
                TaskRecord(task_id=i, name="work", deps=(), t_start=0.0, t_end=1.0)
            )
        cluster = ClusterSpec(n_nodes=2, node=NodeSpec(cores=2, name="unit"))
        cheap = simulate(
            trace,
            cluster,
            checkpoint=CheckpointSpec(every=1, write_cost=0.01),
            failures=[NodeFailure(node=0, at=0.5)],
        )
        assert "pays for itself" in failure_report(cheap)
        dear = simulate(
            trace,
            cluster,
            checkpoint=CheckpointSpec(every=1, write_cost=10.0),
            failures=[NodeFailure(node=0, at=0.5)],
        )
        assert "costs more than it saves" in failure_report(dear)
