"""Tests for :mod:`repro.runtime.observability`: the lifecycle view,
progress reporting and critical-path analysis."""

from __future__ import annotations

import io
import time

import pytest

from repro.runtime import Runtime, RuntimeConfig, task, wait_on
from repro.runtime import observability as obs
from repro.runtime.tracing import TaskRecord, Trace


@task(returns=1)
def _add(a, b):
    return a + b


@task(returns=1)
def _inc(x):
    return x + 1


# ----------------------------------------------------------------------
# parse_flags
# ----------------------------------------------------------------------
def test_parse_flags():
    assert obs.parse_flags("") == frozenset()
    assert obs.parse_flags(None) == frozenset()
    assert obs.parse_flags("off") == frozenset()
    assert obs.parse_flags("metrics") == {"metrics"}
    assert obs.parse_flags("metrics,progress") == {"metrics", "progress"}
    assert obs.parse_flags("metrics progress") == {"metrics", "progress"}
    assert obs.parse_flags("all") == {"metrics", "progress"}
    assert obs.parse_flags("METRICS") == {"metrics"}
    with pytest.raises(ValueError, match="unknown observability flag"):
        obs.parse_flags("metrics,bogus")


def test_config_validates_observability():
    # "metrics" does nothing but stays valid, alone and inside "all"
    for flags in ("metrics", "all", "metrics,progress"):
        assert RuntimeConfig(observability=flags).observability == flags
    with pytest.raises(ValueError, match="unknown observability flag"):
        RuntimeConfig(observability="telemetry")


def test_config_env_observability_and_metrics_shorthand():
    cfg = RuntimeConfig.from_env({"REPRO_OBSERVABILITY": "progress"})
    assert cfg.observability == "progress"
    cfg = RuntimeConfig.from_env({"REPRO_OBSERVABILITY": "metrics,progress"})
    assert obs.parse_flags(cfg.observability) == {"metrics", "progress"}
    # the REPRO_METRICS shorthand is gone: one spelling, REPRO_OBSERVABILITY
    cfg = RuntimeConfig.from_env({"REPRO_METRICS": "maybe"})
    assert cfg.observability == ""


# ----------------------------------------------------------------------
# runtime integration: the lifecycle view
# ----------------------------------------------------------------------
def test_event_sequence_for_one_task():
    with Runtime(executor="sequential") as rt:
        wait_on(_add(1, 2))
        events = obs.lifecycle_events(rt._attempts())
    kinds = [e["kind"] for e in events]
    # sequential executor runs at submission: no READY hop
    assert kinds == ["submitted", "dispatched", "running", "done"]
    by_kind = {e["kind"]: e for e in events}
    ts = [e["t"] for e in events]
    assert ts == sorted(ts)
    done = by_kind["done"]
    assert done["ran"] and done["duration"] is not None and done["duration"] >= 0
    assert done["state"] == "done"
    assert done["queue_wait"] == 0.0  # never queued
    assert by_kind["dispatched"]["worker"] is not None
    assert [e["state"] for e in events] == ["pending", "running", "running", "done"]
    # the rows of the dump's schema, in its key order
    assert list(done) == [
        "kind", "t", "task_id", "root_id", "name", "attempt", "state", "pid",
        "worker", "retry_of", "ran", "duration", "queue_wait", "overhead",
    ]


def test_event_sequence_threads_includes_ready():
    cfg = RuntimeConfig(executor="threads", max_workers=2)
    with Runtime(config=cfg) as rt:
        wait_on(_add(1, 2))
        rt.shutdown()
        events = obs.lifecycle_events(rt._attempts())
    kinds = [e["kind"] for e in events]
    assert kinds == ["submitted", "ready", "dispatched", "running", "done"]


def test_lifecycle_view_of_a_live_attempt_stops_where_it_stands():
    import threading

    started, release = threading.Event(), threading.Event()

    @task(returns=1)
    def parked():
        started.set()
        release.wait(10)
        return 1

    with Runtime(executor="threads", max_workers=1) as rt:
        first, queued = parked(), _inc(1)
        assert started.wait(5)
        rows = obs.lifecycle_events(rt._attempts())
        mid = rt.stats()["by_state"]
        release.set()
        assert wait_on([first, queued]) == [1, 2]
        rt.barrier()
        after = rt.stats()["by_state"]
    # a read mid-run counts the running attempt; none is left after
    assert mid == {"running": 1, "ready": 1} and after == {"done": 2}
    by_task = {name: [r["kind"] for r in rows if r["name"] == name] for name in ("parked", "_inc")}
    assert by_task == {
        "parked": ["submitted", "ready", "dispatched", "running"],
        "_inc": ["submitted", "ready"],
    }


def test_trace_records_carry_span_timestamps():
    cfg = RuntimeConfig(executor="threads", max_workers=2)
    with Runtime(config=cfg) as rt:
        wait_on(_inc(_add(1, 2)))
        rt.shutdown()
        trace = rt.trace()
    for rec in trace:
        assert rec.t_submit is not None and rec.t_ready is not None
        assert rec.t_dispatch is not None and rec.worker is not None
        assert rec.t_submit <= rec.t_ready <= rec.t_dispatch <= rec.t_start <= rec.t_end
        assert rec.queue_wait >= 0 and rec.overhead >= 0


# ----------------------------------------------------------------------
# ProgressReporter
# ----------------------------------------------------------------------
def _attempt(state, t_body_start=None, status=None, retry_of=None):
    """What the reporter reads of a ``TaskInstance``."""
    import types

    return types.SimpleNamespace(
        state=state, t_body_start=t_body_start, status=status, retry_of=retry_of
    )


def test_progress_reporter_counts_and_stream():
    stream = io.StringIO()
    table = [_attempt("pending"), _attempt("running", t_body_start=0.1)]
    rep = obs.ProgressReporter(lambda: table, stream=stream, min_interval=0.0)
    rep.tick()
    snap = rep.snapshot()
    assert snap["submitted"] == 2 and snap["running"] == 1 and snap["finished"] == 0
    assert "0/2 tasks" in stream.getvalue() and "1 running" in stream.getvalue()
    # the table moves on; the reporter keeps no tally of its own
    table[:] = [
        _attempt("done", t_body_start=0.1, status="done"),
        _attempt("failed", t_body_start=0.2, status="failed"),
        _attempt("done", t_body_start=0.3, status="done", retry_of=1),
    ]
    snap = rep.snapshot()
    assert snap["submitted"] == 3 and snap["done"] == 2 and snap["failed"] == 1
    assert snap["finished"] == 3 and snap["running"] == 0 and snap["retries"] == 1
    rep.close()
    out = stream.getvalue()
    assert "3/3 tasks" in out
    assert out.endswith("\n")


def test_progress_reporter_callback_mode():
    snaps = []
    table = [_attempt("done", status="restored")]
    rep = obs.ProgressReporter(lambda: table, callback=snaps.append, min_interval=0.0)
    rep.tick()
    rep.close()
    assert snaps[-1]["restored"] == 1
    assert snaps[-1]["done"] == 1  # restored counts as finished work


def test_progress_throttles_renders():
    ticks = iter([0.0] + [0.01 * i for i in range(1, 200)])
    snaps = []
    reads = []
    rep = obs.ProgressReporter(
        lambda: reads.append(1) or [],
        callback=snaps.append,
        min_interval=10.0,
        clock=lambda: next(ticks),
    )
    for _ in range(50):
        rep.tick()
    assert len(snaps) <= 1  # throttled: interval never elapsed
    assert len(reads) == len(snaps)  # the table is read only to render


def test_runtime_progress_flag_renders_line(capsys):
    cfg = RuntimeConfig(executor="sequential", observability="progress")
    with Runtime(config=cfg):
        wait_on([_add(i, i) for i in range(5)])
    err = capsys.readouterr().err
    assert "5/5 tasks" in err


# ----------------------------------------------------------------------
# critical path & summary
# ----------------------------------------------------------------------
def _diamond_trace():
    #   0 (1s) -> 1 (2s) -\
    #          \-> 2 (0.5s) -> 3 (1s)
    return Trace(
        [
            TaskRecord(task_id=0, name="src", deps=(), t_start=0.0, t_end=1.0),
            TaskRecord(task_id=1, name="slow", deps=(0,), t_start=1.0, t_end=3.0),
            TaskRecord(task_id=2, name="fast", deps=(0,), t_start=1.0, t_end=1.5),
            TaskRecord(task_id=3, name="sink", deps=(1, 2), t_start=3.0, t_end=4.0),
        ]
    )


def test_critical_path_diamond():
    cp = obs.critical_path(_diamond_trace())
    assert cp.task_ids == [0, 1, 3]
    assert cp.length == pytest.approx(4.0)
    assert cp.makespan == pytest.approx(4.0)
    assert cp.work == pytest.approx(4.5)
    assert cp.by_name() == {"slow": 2.0, "src": 1.0, "sink": 1.0}


def test_critical_path_empty_and_single():
    assert obs.critical_path(Trace()).length == 0.0
    one = Trace([TaskRecord(task_id=0, name="t", deps=(), t_start=0.0, t_end=2.0)])
    cp = obs.critical_path(one)
    assert cp.length == pytest.approx(2.0)
    assert cp.task_ids == [0]


def test_critical_path_includes_retry_lost_time():
    tr = Trace(
        [
            TaskRecord(task_id=0, name="flaky", deps=(), t_start=0.0, t_end=1.0,
                       status="failed"),
            TaskRecord(task_id=1, name="flaky", deps=(0,), t_start=1.0, t_end=2.0,
                       attempt=1, retry_of=0),
        ]
    )
    cp = obs.critical_path(tr)
    # the retry depends on the failed attempt: lost time is on the chain
    assert cp.task_ids == [0, 1]
    assert cp.length == pytest.approx(2.0)


@task(returns=1)
def _inc_in_a_millisecond(x):
    end = time.perf_counter() + 1e-3
    while time.perf_counter() < end:
        pass
    return x + 1


def test_critical_path_bounds_on_real_run():
    # Each chain task works for a millisecond and the independent ones
    # are no-ops, so the chain is the critical path by construction: a
    # preempted or collected-in no-op would have to stall for the whole
    # 5 ms to take it.
    cfg = RuntimeConfig(executor="threads", max_workers=2)
    with Runtime(config=cfg) as rt:
        f = 0
        for _ in range(5):
            f = _inc_in_a_millisecond(f)
        extra = [_add(i, i) for i in range(6)]
        wait_on([f] + extra)
        rt.shutdown()
        trace = rt.trace()
    cp = obs.critical_path(trace)
    max_single = max(r.duration for r in trace)
    assert cp.length <= trace.makespan * (1 + 1e-6)
    assert cp.length >= max_single
    assert len(cp.records) >= 5  # at least the 5-task chain


def test_critical_path_zero_duration_restored_spans():
    """A checkpoint-restored span has t_start == t_end (zero duration)
    and no ready/dispatch stamps: the analyzer must not crash, must
    not report negative waits, and must still walk through it."""
    tr = Trace(
        [
            TaskRecord(task_id=0, name="seed", deps=(), t_start=0.0, t_end=0.0,
                       status="restored"),
            TaskRecord(task_id=1, name="seed", deps=(), t_start=0.0, t_end=0.0,
                       status="restored"),
            TaskRecord(task_id=2, name="work", deps=(0, 1), t_start=0.1, t_end=1.1),
        ]
    )
    cp = obs.critical_path(tr)
    assert cp.length == pytest.approx(1.0)
    assert cp.task_ids[-1] == 2
    summary = obs.summarize_trace(tr)
    assert summary["queue_wait"] >= 0.0
    assert summary["n_restored"] == 2
    assert all(r.queue_wait >= 0.0 for r in tr)
    assert all(r.overhead >= 0.0 for r in tr)


def test_summarize_and_format():
    summary = obs.summarize_trace(_diamond_trace())
    assert summary["n_records"] == 4
    assert summary["makespan"] == pytest.approx(4.0)
    assert summary["critical_path"] == pytest.approx(4.0)
    assert summary["parallelism"] == pytest.approx(4.5 / 4.0)
    assert list(summary["by_name"])[0] == "slow"  # sorted by total time
    text = obs.format_summary(summary)
    assert "critical path" in text and "slow" in text
    cp_text = obs.format_critical_path(obs.critical_path(_diamond_trace()))
    assert "100% of makespan" in cp_text
    assert "#1" in cp_text
