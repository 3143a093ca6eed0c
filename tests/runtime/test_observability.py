"""Tests for :mod:`repro.runtime.observability`: the lifecycle view,
metrics registry, Prometheus exposition, progress reporting and
critical-path analysis."""

from __future__ import annotations

import io
import json
import time

import pytest

from repro.runtime import Runtime, RuntimeConfig, task, wait_on
from repro.runtime import observability as obs
from repro.runtime.tracing import TaskRecord, Trace
from tests.support.oracles import metric_value


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
    RuntimeConfig(observability="metrics")  # fine
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
# Histogram / registry primitives
# ----------------------------------------------------------------------
def test_histogram_buckets_are_cumulative():
    h = obs.Histogram(bounds=(0.001, 0.01, 0.1))
    for v in (0.0005, 0.005, 0.005, 0.05, 5.0):
        h.observe(v)
    snap = h.snapshot()
    assert [c for _, c in snap["buckets"]] == [1, 3, 4, 5]
    assert snap["buckets"][-1][0] == "+Inf"
    assert snap["count"] == 5
    assert snap["sum"] == pytest.approx(5.0605)


def test_histogram_boundary_value_falls_in_lower_bucket():
    h = obs.Histogram(bounds=(1.0, 2.0))
    h.observe(1.0)  # le="1" bucket includes exactly 1.0
    assert h.snapshot()["buckets"][0] == [1.0, 1]


def test_registry_manual_series_and_snapshot():
    reg = obs.MetricsRegistry()
    reg.inc("repro_things_total", 3, kind="a")
    reg.set_gauge("repro_depth", 7)
    reg.observe("repro_latency_seconds", 0.5)
    snap = reg.snapshot()
    assert metric_value(snap, "repro_things_total", kind="a") == 3
    assert metric_value(snap, "repro_depth") == 7
    assert metric_value(snap, "repro_missing", default=-1) == -1
    (hist,) = snap["histograms"]
    assert hist["count"] == 1
    json.dumps(snap)  # snapshot must be JSON-serialisable


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
def test_prometheus_roundtrip():
    cfg = RuntimeConfig(executor="sequential", observability="metrics")
    with Runtime(config=cfg) as rt:
        wait_on(_add(1, 2))
        text = rt.metrics_text()
    parsed = obs.parse_prometheus(text)
    assert parsed[("repro_tasks_submitted_total", ())] == 1
    assert parsed[("repro_tasks_total", (("state", "done"),))] == 1
    assert parsed[("repro_tasks_running", ())] == 0
    assert parsed[("repro_task_duration_seconds_count", (("task", "_add"),))] == 1
    # histogram exposition carries cumulative le buckets and a sum
    assert ("repro_task_duration_seconds_sum", (("task", "_add"),)) in parsed
    assert any(name == "repro_task_duration_seconds_bucket" for name, _ in parsed)
    assert "# TYPE repro_task_duration_seconds histogram" in text


def test_parse_prometheus_rejects_malformed():
    with pytest.raises(ValueError):
        obs.parse_prometheus("repro_x{unterminated 1")
    with pytest.raises(ValueError):
        obs.parse_prometheus("repro_x notanumber")
    with pytest.raises(ValueError):
        obs.parse_prometheus('repro_x{label=unquoted} 1')


def test_prometheus_escapes_hostile_label_values():
    hostile = 'evil\\path"quoted"\nnewline,comma={brace}'
    reg = obs.MetricsRegistry()
    reg.inc("repro_things_total", 5, task=hostile, plain="x")
    text = obs.to_prometheus(reg.snapshot())
    # the exposition stays one sample per line: the raw newline must
    # have been escaped, never emitted
    sample_lines = [
        l for l in text.splitlines()
        if l.startswith("repro_things_total")
    ]
    assert len(sample_lines) == 1
    assert "\\n" in sample_lines[0]
    parsed = obs.parse_prometheus(text)
    ((name, labels),) = [k for k in parsed if k[0] == "repro_things_total"]
    assert dict(labels)["task"] == hostile  # byte-exact round-trip
    assert parsed[(name, labels)] == 5


def test_label_escape_unescape_roundtrip_edge_cases():
    for value in ("", "\\", "\\n", '\\"', "\n\n", 'a\\"b', "trailing\\"):
        assert (
            obs._unescape_label_value(obs._escape_label_value(value)) == value
        )


def test_merge_helpers_are_idempotent():
    snap = obs.empty_snapshot()
    backend = {"backend": "threads", "tasks_run": 5, "max_workers": 4}
    store = {"n_objects": 3, "puts": 7}
    service = {"tenants": {"acme": {"queued": 2, "leased": 1}}, "counters": {"claims": 9}}
    for _ in range(3):  # re-merging must overwrite, never double-count
        obs.merge_backend_stats(snap, backend)
        obs.merge_store_stats(snap, store)
        obs.merge_service_stats(snap, service)
    names = [
        (s["name"], tuple(sorted(s["labels"].items())))
        for section in ("counters", "gauges")
        for s in snap[section]
    ]
    assert len(names) == len(set(names))  # no duplicate series
    assert metric_value(snap, "repro_backend_tasks_run_total") == 5
    assert metric_value(snap, "repro_store_puts_total") == 7
    assert metric_value(snap, "repro_service_claims_total") == 9
    assert metric_value(snap, "repro_service_queue_depth", tenant="acme") == 2


def test_merge_idempotency_updates_changed_values():
    snap = obs.empty_snapshot()
    obs.merge_store_stats(snap, {"puts": 7})
    obs.merge_store_stats(snap, {"puts": 11})  # newer snapshot wins
    assert metric_value(snap, "repro_store_puts_total") == 11
    assert (
        sum(1 for s in snap["counters"] if s["name"] == "repro_store_puts_total")
        == 1
    )


def test_merge_backend_stats_prefixes_series():
    snap = obs.empty_snapshot()
    merged = obs.merge_backend_stats(
        snap, {"backend": "threads", "tasks_run": 5, "max_workers": 4}
    )
    assert metric_value(merged, "repro_backend_tasks_run_total") == 5
    assert metric_value(merged, "repro_backend_max_workers") == 4
    assert merged["backend"]["backend"] == "threads"


# ----------------------------------------------------------------------
# runtime integration: events, metrics()
# ----------------------------------------------------------------------
def _assert_metrics_agree_with_stats(rt):
    """On a drained runtime the metrics view and ``stats()`` are two
    readings of one task table."""
    snap, stats = rt.metrics(), rt.stats()
    by_state = {
        c["labels"]["state"]: c["value"]
        for c in snap["counters"]
        if c["name"] == "repro_tasks_total"
    }
    assert by_state == stats["by_state"]
    for name, key in (
        ("repro_tasks_submitted_total", "n_tasks"),
        ("repro_retries_total", "retries"),
        ("repro_tasks_restored_total", "restored"),
    ):
        assert metric_value(snap, name, default=0) == stats[key], name
    assert metric_value(snap, "repro_tasks_running", default=0) == 0


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
        release.set()
        assert wait_on([first, queued]) == [1, 2]
    by_task = {name: [r["kind"] for r in rows if r["name"] == name] for name in ("parked", "_inc")}
    assert by_task == {
        "parked": ["submitted", "ready", "dispatched", "running"],
        "_inc": ["submitted", "ready"],
    }


def test_metrics_disabled_snapshot_shape():
    with Runtime(executor="sequential") as rt:
        wait_on(_add(1, 1))
        snap = rt.metrics()
    assert snap["enabled"] is False
    # no lifecycle series, but backend stats are still merged in
    assert all(c["name"].startswith("repro_backend_") for c in snap["counters"])
    assert "backend" in snap
    # exposition of a disabled runtime still renders (backend series only)
    obs.parse_prometheus(rt.metrics_text())


def test_metrics_reconcile_with_stats_and_trace():
    cfg = RuntimeConfig(executor="threads", max_workers=2, observability="metrics")
    with Runtime(config=cfg) as rt:
        futs = [_add(i, 1) for i in range(25)]
        futs += [_inc(futs[i]) for i in range(5)]
        wait_on(futs)
        rt.shutdown()
        _assert_metrics_agree_with_stats(rt)
        snap = rt.metrics()
        trace = rt.trace()
    durations = [
        h for h in snap["histograms"] if h["name"] == "repro_task_duration_seconds"
    ]
    assert sum(h["count"] for h in durations) == trace.n_executed == 30
    assert metric_value(snap, "repro_tasks_submitted_total") == 30
    assert metric_value(snap, "repro_tasks_total", state="done") == 30
    assert metric_value(snap, "repro_tasks_running") == 0
    util = metric_value(snap, "repro_worker_utilization")
    assert util is not None and 0 <= util <= 1


def test_metrics_count_retries_and_failures():
    @task(returns=1, on_failure="RETRY", max_retries=2)
    def flaky(x):
        from repro.runtime.backends import current_attempt

        if current_attempt() < 1:
            raise RuntimeError("first attempt fails")
        return x

    cfg = RuntimeConfig(executor="threads", max_workers=2, observability="metrics")
    with Runtime(config=cfg) as rt:
        assert wait_on(flaky.opts(retry_backoff=0.0)(5)) == 5
        rt.shutdown()
        _assert_metrics_agree_with_stats(rt)
        snap = rt.metrics()
    assert metric_value(snap, "repro_retries_total") == 1
    assert metric_value(snap, "repro_tasks_total", state="failed") == 1
    assert metric_value(snap, "repro_tasks_total", state="done") == 1
    assert metric_value(snap, "repro_task_failures_total", task="flaky") == 1


def test_metrics_count_cancellations():
    @task(returns=1)
    def boom():
        raise ValueError("dead")

    cfg = RuntimeConfig(executor="threads", max_workers=2, observability="metrics")
    with Runtime(config=cfg) as rt:
        f = boom()
        g = _inc(f)  # cancelled when boom fails (CANCEL_SUCCESSORS)
        with pytest.raises(Exception):
            wait_on(g)
        rt.shutdown()
        _assert_metrics_agree_with_stats(rt)
        snap = rt.metrics()
    assert metric_value(snap, "repro_tasks_total", state="failed") == 1
    assert metric_value(snap, "repro_tasks_total", state="cancelled") == 1


def test_metrics_count_restored(tmp_path):
    cfg = RuntimeConfig(
        executor="sequential",
        checkpoint_dir=str(tmp_path / "ckpt"),
        observability="metrics",
    )
    with Runtime(config=cfg) as rt:
        assert wait_on(_add(3, 4)) == 7
    with Runtime(config=cfg) as rt:
        assert wait_on(_add(3, 4)) == 7
        _assert_metrics_agree_with_stats(rt)
        snap = rt.metrics()
        assert rt.trace().n_restored == 1
    assert metric_value(snap, "repro_tasks_restored_total") == 1
    # the restored attempt terminates as done, so totals still reconcile
    assert metric_value(snap, "repro_tasks_total", state="done") == 1


def test_save_metrics_json(tmp_path):
    cfg = RuntimeConfig(executor="sequential", observability="metrics")
    out = tmp_path / "metrics.json"
    with Runtime(config=cfg) as rt:
        wait_on(_add(1, 1))
        rt.save_metrics(out)
    doc = json.loads(out.read_text())
    assert doc["enabled"] is True
    assert metric_value(doc, "repro_tasks_submitted_total") == 1


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
