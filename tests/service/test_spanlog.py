"""Tests of :mod:`repro.service.spanlog`: the append-only durable span
log, its crash-tolerant reader, and the merged service OTLP export."""

from __future__ import annotations

import json

from repro.runtime.otlp import iter_spans, save_otlp, span_attributes, trace_to_otlp
from repro.runtime.tracectx import new_trace
from repro.service.spanlog import (
    SPANS_FILE,
    TRACES_DIR,
    SpanLog,
    export_service_otlp,
    read_span_rows,
)


def test_start_end_rows_roundtrip(tmp_path):
    log = SpanLog(tmp_path)
    ctx = new_trace().child()
    log.start(ctx, "deliver", task_id=4, pid=99, skipped=None)
    log.end(ctx, status="ok", worker="w0")
    rows = list(read_span_rows(tmp_path))
    assert [r["event"] for r in rows] == ["start", "end"]
    start, end = rows
    assert start["trace_id"] == ctx.trace_id
    assert start["span_id"] == ctx.span_id
    assert start["parent_id"] == ctx.parent_id
    assert start["attributes"] == {"task_id": 4, "pid": 99}  # None dropped
    assert end["span_id"] == ctx.span_id
    assert end["status"] == "ok"
    assert end["attributes"] == {"worker": "w0"}


def test_point_is_an_instantaneous_span(tmp_path):
    log = SpanLog(tmp_path)
    ctx = new_trace()
    log.point(ctx, "submit", task_id=1)
    start, end = list(read_span_rows(tmp_path))
    assert start["t_start"] == end["t_end"]


def test_reader_tolerates_garbage_and_truncation(tmp_path):
    log = SpanLog(tmp_path)
    ctx = new_trace()
    log.start(ctx, "deliver")
    path = tmp_path / SPANS_FILE
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n")  # blank line
        fh.write('{"event": "end", "span_id": "tru')  # died mid-append
    rows = list(read_span_rows(tmp_path))
    assert len(rows) == 1
    assert rows[0]["span_id"] == ctx.span_id


def test_reader_on_missing_file_is_empty(tmp_path):
    assert list(read_span_rows(tmp_path)) == []


def test_export_merges_span_log_and_saved_runtime_traces(tmp_path):
    from repro.runtime import Runtime, task, wait_on

    @task(returns=1)
    def _x(v):
        return v

    # durable service spans: one completed, one interrupted
    log = SpanLog(tmp_path)
    done, dead = new_trace(), new_trace()
    log.start(done, "deliver", server="a")
    log.end(done, status="ok")
    log.start(dead, "deliver", server="b")  # crash: no end row

    # one saved incarnation trace (the OTLP document drain() writes)
    with Runtime(executor="threads") as rt:
        wait_on(_x(1))
        trace = rt.trace()
    traces_dir = tmp_path / TRACES_DIR
    traces_dir.mkdir()
    save_otlp(
        trace_to_otlp(
            trace,
            wall_t0=5000.0,
            resource={
                "service.name": "repro-service-runtime",
                "repro.server_id": "a",
                "repro.pid": 1234,
            },
        ),
        traces_dir / "trace-a.json",
    )

    doc = export_service_otlp(tmp_path)
    spans = list(iter_spans(doc))
    names = sorted(s["name"] for s in spans)
    assert names == ["_x", "deliver", "deliver"]
    interrupted = [
        s for s in spans if span_attributes(s).get("repro.interrupted")
    ]
    assert len(interrupted) == 1
    assert interrupted[0]["traceId"] == dead.trace_id
    runtime_span = next(s for s in spans if s["name"] == "_x")
    assert int(runtime_span["startTimeUnixNano"]) >= int(5000.0 * 1e9)
    resources = [span_attributes(group["resource"]) for group in doc["resourceSpans"]]
    assert any(r.get("service.name") == "repro-service" for r in resources)
    assert {
        "service.name": "repro-service-runtime",
        "repro.server_id": "a",
        "repro.pid": 1234,
    } in resources


def test_export_tolerates_corrupt_trace_file(tmp_path):
    log = SpanLog(tmp_path)
    ctx = new_trace()
    log.start(ctx, "deliver")
    log.end(ctx)
    traces_dir = tmp_path / TRACES_DIR
    traces_dir.mkdir()
    (traces_dir / "trace-bad.json").write_text("{not json")
    # a record-list wrapper is not an OTLP document: skipped the same way
    (traces_dir / "trace-old.json").write_text(
        json.dumps({"server_id": "old", "wall_t0": 0.0, "records": []})
    )
    doc = export_service_otlp(tmp_path)
    assert len(list(iter_spans(doc))) == 1
