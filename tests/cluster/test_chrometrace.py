"""Chrome Trace Event Format export of a recorded runtime trace
through its OTLP document."""

from __future__ import annotations

import json

import pytest

from repro.runtime import Runtime, task, wait_on
from repro.runtime.otlp import otlp_to_chrome, trace_to_otlp
from repro.runtime.tracing import TaskRecord, Trace
from tests.support.chrome import validate_chrome_json


def _timeline(trace: Trace) -> list[dict]:
    return validate_chrome_json(json.dumps(otlp_to_chrome(trace_to_otlp(trace))))


@task(returns=1)
def _leaf(x):
    return x + 1


@task(returns=1)
def _parent(x):
    return wait_on(_leaf(x))


def test_runtime_trace_export():
    with Runtime(executor="sequential") as rt:
        wait_on(_leaf(5))      # task 0: ensures the parent id is non-zero
        wait_on(_parent(1))
        events = _timeline(rt.trace())
    xs = [e for e in events if e["ph"] == "X"]
    assert len(xs) == 3
    for e in xs:
        assert e["dur"] >= 0
        assert e["args"]["repro.cores"] == 1
        assert e["args"]["repro.status"] == "done"
    # the sequential executor runs everything on one thread: every
    # attempt lands on the same worker lane of the same process row
    assert len({(e["pid"], e["tid"]) for e in xs}) == 1
    # each lane is named after its worker thread via metadata
    names = [e for e in events if e.get("name") == "thread_name"]
    assert len(names) == 1


def test_trace_export_flow_events_follow_deps():
    @task(returns=1)
    def chain(x):
        return x + 1

    with Runtime(executor="sequential") as rt:
        f = chain(0)
        f = chain(f)
        wait_on(f)
        trace = rt.trace()
    events = _timeline(trace)
    starts = [e for e in events if e["ph"] == "s"]
    finishes = [e for e in events if e["ph"] == "f"]
    assert len(starts) == 1 and len(finishes) == 1
    assert starts[0]["id"] == finishes[0]["id"]
    assert finishes[0]["bp"] == "e"
    # the arrow leaves the producer at its end and lands at (or after)
    # the consumer's start; timestamps are rebased to the first span
    producer, consumer = trace
    assert starts[0]["ts"] == pytest.approx((producer.t_end - producer.t_start) * 1e6, abs=0.01)
    assert finishes[0]["ts"] == pytest.approx(
        (max(consumer.t_start, producer.t_end) - producer.t_start) * 1e6, abs=0.01
    )


def test_trace_export_retry_and_failure_instants():
    tr = Trace(
        [
            TaskRecord(task_id=0, name="a", deps=(), t_start=0.0, t_end=1.0,
                       status="failed", error="boom"),
            TaskRecord(task_id=1, name="a", deps=(0,), t_start=1.0, t_end=2.0,
                       attempt=1, retry_of=0),
            TaskRecord(task_id=2, name="b", deps=(), t_start=0.0, t_end=0.0,
                       status="restored"),
        ]
    )
    # markers, not the zero-duration restored span itself (cat "span")
    instants = [e for e in _timeline(tr) if e["ph"] == "i" and e["cat"] != "span"]
    cats = sorted(e["cat"] for e in instants)
    assert cats == ["checkpoint", "failure", "retry"]
    retry_ev = next(e for e in instants if e["cat"] == "retry")
    assert retry_ev["args"] == {"retry_of": 0, "attempt": 1}


def test_trace_export_per_worker_and_per_pid_lanes():
    tr = Trace(
        [
            TaskRecord(task_id=0, name="a", deps=(), t_start=0.0, t_end=1.0,
                       pid=100, worker="w-0"),
            TaskRecord(task_id=1, name="b", deps=(), t_start=0.0, t_end=1.0,
                       pid=100, worker="w-1"),
            TaskRecord(task_id=2, name="c", deps=(), t_start=0.0, t_end=1.0,
                       pid=200, worker="w-0"),
        ]
    )
    events = _timeline(tr)
    xs = {e["name"]: (e["pid"], e["tid"]) for e in events if e["ph"] == "X"}
    # distinct workers get distinct lanes; distinct pids distinct rows
    assert xs["a"][0] == xs["b"][0] != xs["c"][0]
    assert xs["a"][1] != xs["b"][1]
    rows = {e["pid"]: e["args"]["name"] for e in events if e.get("name") == "process_name"}
    assert len(rows) == 2
    assert rows[xs["a"][0]].endswith("pid 100") and rows[xs["c"][0]].endswith("pid 200")


def test_trace_export_data_plane_counter_lane():
    tr = Trace(
        [
            TaskRecord(task_id=0, name="a", deps=(), t_start=0.0, t_end=1.0,
                       bytes_moved=100, bytes_saved=400),
            TaskRecord(task_id=1, name="b", deps=(0,), t_start=1.0, t_end=2.0,
                       bytes_moved=50, bytes_saved=200),
        ]
    )
    events = _timeline(tr)
    counters = [e for e in events if e["ph"] == "C"]
    assert len(counters) == 2
    # the series is cumulative and ordered by task end time
    assert counters[0]["args"] == {"moved": 100, "saved": 400}
    assert counters[1]["args"] == {"moved": 150, "saved": 600}
    assert counters[0]["ts"] <= counters[1]["ts"]
    # per-task byte accounting also lands on the span args
    xs = {e["name"]: e for e in events if e["ph"] == "X"}
    assert xs["a"]["args"]["repro.bytes_moved"] == 100
    assert xs["b"]["args"]["repro.bytes_saved"] == 200


def test_trace_export_without_data_plane_has_no_counter_lane():
    tr = Trace([TaskRecord(task_id=0, name="a", deps=(), t_start=0.0, t_end=1.0)])
    events = _timeline(tr)
    assert not [e for e in events if e["ph"] == "C"]


def test_validate_chrome_json_rejects_malformed():
    import pytest

    with pytest.raises(ValueError):
        validate_chrome_json(json.dumps({"traceEvents": [{"ph": "X", "pid": 1}]}))
    with pytest.raises(ValueError):
        validate_chrome_json(json.dumps({"no": "events"}))
    with pytest.raises(ValueError):
        validate_chrome_json(
            json.dumps(
                {"traceEvents": [{"ph": "s", "id": 7, "pid": 1, "tid": 0, "ts": 0}]}
            )
        )


def test_empty_trace_valid_json():
    assert _timeline(Trace()) == []
