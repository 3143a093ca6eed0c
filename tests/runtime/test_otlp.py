"""Tests of :mod:`repro.runtime.otlp`: the OTLP/JSON shape, typed
attributes, status mapping, interrupted service spans, document
merging, and the runtime-trace export path."""

from __future__ import annotations

import json

from repro.runtime import Runtime, task, wait_on
from repro.runtime.otlp import (
    iter_spans,
    merge_otlp,
    otlp_to_chrome,
    save_otlp,
    span_attributes,
    spans_to_otlp,
    trace_to_otlp,
)

TRACE = "ab" * 16
SPAN_A = "01" * 8
SPAN_B = "02" * 8


def _start(span_id, *, parent=None, name="deliver", t=100.0, **attrs):
    return {
        "event": "start",
        "trace_id": TRACE,
        "span_id": span_id,
        "parent_id": parent,
        "name": name,
        "t_start": t,
        "attributes": attrs,
    }


def _end(span_id, *, status="ok", t=101.0, **attrs):
    return {
        "event": "end",
        "span_id": span_id,
        "t_end": t,
        "status": status,
        "attributes": attrs,
    }


# ----------------------------------------------------------------------
# service span rows
# ----------------------------------------------------------------------
def test_spans_to_otlp_pairs_start_and_end():
    doc = spans_to_otlp(
        [_start(SPAN_A, pid=42, attempt=0), _end(SPAN_A, extra="late")]
    )
    (span,) = list(iter_spans(doc))
    assert span["traceId"] == TRACE and span["spanId"] == SPAN_A
    assert span["startTimeUnixNano"] == str(int(100.0 * 1e9))
    assert span["endTimeUnixNano"] == str(int(101.0 * 1e9))
    attrs = span_attributes(span)
    assert attrs["pid"] == 42  # intValue round-trips as int
    assert attrs["extra"] == "late"  # end attributes merged in
    assert span["status"]["code"] == 1


def test_interrupted_span_has_zero_duration_and_marker():
    doc = spans_to_otlp([_start(SPAN_A)])
    (span,) = list(iter_spans(doc))
    assert span["startTimeUnixNano"] == span["endTimeUnixNano"]
    assert span_attributes(span)["repro.interrupted"] is True
    assert span["status"]["code"] == 2


def test_status_mapping_failed_vs_informational():
    doc = spans_to_otlp(
        [
            _start(SPAN_A),
            _end(SPAN_A, status="failed"),
            _start(SPAN_B),
            _end(SPAN_B, status="dedup"),
        ]
    )
    by_id = {s["spanId"]: s for s in iter_spans(doc)}
    assert by_id[SPAN_A]["status"]["code"] == 2
    assert by_id[SPAN_B]["status"]["code"] == 1  # dedup is not an error


def test_parent_id_becomes_parent_span_id():
    doc = spans_to_otlp([_start(SPAN_B, parent=SPAN_A), _end(SPAN_B)])
    (span,) = list(iter_spans(doc))
    assert span["parentSpanId"] == SPAN_A


def test_rows_without_span_id_are_skipped():
    doc = spans_to_otlp([{"event": "start", "trace_id": TRACE}])
    assert list(iter_spans(doc)) == []


def test_typed_attributes_bool_int_float_string():
    doc = spans_to_otlp(
        [_start(SPAN_A, flag=True, n=3, ratio=0.5, tag="x"), _end(SPAN_A)]
    )
    (span,) = list(iter_spans(doc))
    raw = {a["key"]: a["value"] for a in span["attributes"]}
    assert raw["flag"] == {"boolValue": True}  # bool checked before int
    assert raw["n"] == {"intValue": "3"}
    assert raw["ratio"] == {"doubleValue": 0.5}
    assert raw["tag"] == {"stringValue": "x"}
    attrs = span_attributes(span)
    assert attrs == {"flag": True, "n": 3, "ratio": 0.5, "tag": "x"}


# ----------------------------------------------------------------------
# runtime traces
# ----------------------------------------------------------------------
@task(returns=1)
def _leaf(x):
    return x * 2


@task(returns=1)
def _outer(x):
    return _leaf(x)


def test_trace_to_otlp_exports_lineage_and_resource():
    # backend pinned: a nested child task exists only on the coordinator
    with Runtime(executor="threads", backend="threads") as rt:
        assert wait_on(_outer(3)) == 6
        trace = rt.trace()
    doc = trace_to_otlp(trace, wall_t0=1000.0, resource={"repro.server_id": "s1"})
    spans = {s["name"]: s for s in iter_spans(doc)}
    assert spans["_leaf"]["traceId"] == spans["_outer"]["traceId"]
    assert spans["_leaf"]["parentSpanId"] == spans["_outer"]["spanId"]
    assert int(spans["_outer"]["startTimeUnixNano"]) >= int(1000.0 * 1e9)
    assert span_attributes(spans["_outer"])["repro.pid"] is not None
    (group,) = doc["resourceSpans"]
    res = {a["key"]: a["value"]["stringValue"] for a in group["resource"]["attributes"]}
    assert res["service.name"] == "repro-runtime"
    assert res["repro.server_id"] == "s1"


def test_trace_to_otlp_synthesizes_ids_for_untraced_records():
    from repro.runtime.config import RuntimeConfig

    with Runtime(config=RuntimeConfig(executor="threads", collect_trace=True)) as rt:
        wait_on(_leaf(1))
        trace = rt.trace()
    for rec in trace:  # simulate a pre-tracing artifact
        rec.trace_id = None
        rec.span_id = None
    doc = trace_to_otlp(trace)
    (span,) = list(iter_spans(doc))
    assert len(span["traceId"]) == 32
    assert len(span["spanId"]) == 16


# ----------------------------------------------------------------------
# merge + save
# ----------------------------------------------------------------------
def test_merge_otlp_concatenates_resource_groups():
    a = spans_to_otlp([_start(SPAN_A), _end(SPAN_A)])
    b = spans_to_otlp([_start(SPAN_B), _end(SPAN_B)], resource={"x": "y"})
    merged = merge_otlp(a, b)
    assert len(merged["resourceSpans"]) == 2
    assert {s["spanId"] for s in iter_spans(merged)} == {SPAN_A, SPAN_B}


def test_otlp_to_chrome_merged_timeline():
    """One process row per resource, rebased µs timestamps, instant
    events for zero-duration (interrupted / point) spans."""
    a = spans_to_otlp(
        [_start(SPAN_A, worker="w-1"), _end(SPAN_A)],
        resource={"repro.server_id": "srv-a"},
    )
    b = spans_to_otlp(
        [_start(SPAN_B, t=100.5)],  # no end row -> interrupted
        resource={"repro.server_id": "srv-b"},
    )
    chrome = otlp_to_chrome(merge_otlp(a, b))
    events = chrome["traceEvents"]

    process_names = {
        e["pid"]: e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert len(process_names) == 2
    assert any("srv-a" in name for name in process_names.values())
    assert any("srv-b" in name for name in process_names.values())

    complete = [e for e in events if e["ph"] == "X"]
    (done,) = complete
    assert done["name"] == "deliver"
    assert done["ts"] == 0.0  # rebased to the earliest span
    assert done["dur"] == 1_000_000.0  # 1s in µs
    assert done["args"]["spanId"] == SPAN_A

    (instant,) = [e for e in events if e["ph"] == "i"]
    assert instant["cat"] == "error"  # interrupted exports as error
    assert instant["ts"] == 500_000.0  # 0.5s after the first span
    assert instant["args"]["repro.interrupted"] is True

    # worker attribute names the thread lane
    lanes = {
        (e["pid"], e["tid"]): e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert (done["pid"], done["tid"]) in lanes
    assert lanes[(done["pid"], done["tid"])] == "w-1"


def test_otlp_to_chrome_rebases_on_a_span_at_time_zero():
    """A span starting at Unix-nano 0 is the earliest span: nothing
    renders before zero."""
    from tests.support.chrome import validate_chrome_json
    from repro.runtime.tracing import TaskRecord, Trace

    trace = Trace(
        [
            TaskRecord(task_id=0, name="a", deps=(), t_start=0.0, t_end=1.0),
            TaskRecord(task_id=1, name="b", deps=(0,), t_start=1.0, t_end=2.0),
        ]
    )
    events = validate_chrome_json(json.dumps(otlp_to_chrome(trace_to_otlp(trace))))
    xs = {e["name"]: e["ts"] for e in events if e["ph"] == "X"}
    assert xs == {"a": 0.0, "b": 1_000_000.0}


def test_otlp_to_chrome_labels_rows_with_resource_pid():
    """Resource attributes are typed: an int ``repro.pid`` on the
    resource labels the process row of spans that carry no pid."""
    doc = spans_to_otlp(
        [_start(SPAN_A), _end(SPAN_A)],
        resource={"repro.server_id": "srv", "repro.pid": 4321},
    )
    events = otlp_to_chrome(doc)["traceEvents"]
    (row,) = [e["args"]["name"] for e in events if e.get("name") == "process_name"]
    assert row == "repro-service [srv] pid 4321"


def test_trace_to_otlp_links_recorded_dependencies():
    from repro.runtime.tracing import TaskRecord, Trace

    trace = Trace(
        [
            TaskRecord(task_id=0, name="a", deps=(), t_start=0.0, t_end=1.0,
                       trace_id=TRACE, span_id=SPAN_A, bytes_moved=8),
            # task 7 was never recorded: no link, nothing dangling
            TaskRecord(task_id=1, name="b", deps=(0, 7), t_start=1.0, t_end=3.0,
                       trace_id=TRACE, span_id=SPAN_B, t_ready=1.0, t_dispatch=1.5),
        ]
    )
    spans = {s["name"]: s for s in iter_spans(trace_to_otlp(trace))}
    assert "links" not in spans["a"]
    assert spans["b"]["links"] == [{"traceId": TRACE, "spanId": SPAN_A}]
    attrs = span_attributes(spans["b"])
    assert attrs["repro.cores"] == 1 and attrs["repro.gpus"] == 0
    assert attrs["repro.queue_wait_us"] == 500_000.0
    assert attrs["repro.bytes_moved"] == 0
    assert span_attributes(spans["a"])["repro.bytes_moved"] == 8


def test_save_otlp_writes_parseable_json(tmp_path):
    doc = spans_to_otlp([_start(SPAN_A), _end(SPAN_A)])
    path = tmp_path / "out.json"
    save_otlp(doc, path)
    loaded = json.loads(path.read_text())
    assert [s["spanId"] for s in iter_spans(loaded)] == [SPAN_A]
