"""Tests of the service's span log: the ``submit`` and ``deliver`` spans
:meth:`DurableQueue.span_rows` rebuilds from the provenance log, and the
merged service OTLP export."""

from __future__ import annotations

import json

import pytest

from repro.runtime.otlp import iter_spans, save_otlp, span_attributes, trace_to_otlp
from repro.runtime.tracectx import TraceContext, new_trace
from repro.service.db import Database
from repro.service.queue import DurableQueue
from repro.service.server import TRACES_DIR, export_service_otlp


class FakeClock:
    def __init__(self, t: float = 1000.0):
        self.t = t

    def __call__(self) -> float:
        return self.t


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def queue(tmp_path, clock):
    db = Database(tmp_path / "queue.db")
    yield DurableQueue(db, clock=clock, retry_backoff=0.0)
    db.close()


def submit(queue, sig="sig", trace=True):
    return queue.submit(
        name="add", module="repro.service.demo", qualname="add", payload=b"p",
        signature=sig, trace_ctx=new_trace().to_header() if trace else None,
    )


def claim(queue, worker="s/w0", lease=10.0):
    return queue.claim(worker=worker, server="s", lease_timeout=lease)


def test_start_end_rows_roundtrip(queue, clock):
    task_id = submit(queue)
    clock.t += 1.0
    c = claim(queue)
    clock.t += 2.0
    queue.complete(c.id, c.signature, payload=b"", worker="s/w0", attempt=0,
                   span_ctx=c.span_ctx)
    rows = queue.span_rows()
    assert [(r["event"], r.get("name")) for r in rows] == [
        ("start", "submit"), ("end", None), ("start", "deliver"), ("end", None),
    ]
    submit_start, _, start, end = rows
    submitted = TraceContext.from_header(c.trace_ctx)
    delivery = TraceContext.from_header(c.span_ctx)
    assert submit_start["span_id"] == submitted.span_id
    assert submit_start["attributes"] == {"task_id": task_id, "task": "add", "tenant": "default"}
    assert start["trace_id"] == submitted.trace_id == delivery.trace_id
    assert start["span_id"] == delivery.span_id != submitted.span_id
    assert start["parent_id"] == submitted.span_id
    assert (start["t_start"], end["t_end"]) == (1001.0, 1003.0)
    attributes = start["attributes"]
    assert attributes["worker"] == "s/w0" and attributes["server"] == "s"
    assert attributes["attempt"] == 0 and isinstance(attributes["pid"], int)
    assert end["span_id"] == delivery.span_id
    assert end["status"] == "ok"


def test_point_is_an_instantaneous_span(queue):
    submit(queue)
    start, end = queue.span_rows()
    assert start["name"] == "submit" and start["parent_id"] is None
    assert start["t_start"] == end["t_end"]
    assert end["status"] == "ok"


def test_untraced_tasks_have_no_spans(queue):
    task_id = submit(queue, trace=False)
    c = claim(queue)
    assert c.span_ctx is None
    queue.complete(task_id, c.signature, payload=b"", worker="s/w0", attempt=0)
    assert queue.span_rows() == []


def test_unreported_delivery_exports_interrupted(queue, tmp_path):
    """A delivery whose process died never reports: its span has a
    start and no end, and exports as interrupted."""
    submit(queue)
    claim(queue)
    deliveries = [
        s for s in iter_spans(export_service_otlp(tmp_path)) if s["name"] == "deliver"
    ]
    assert len(deliveries) == 1
    assert span_attributes(deliveries[0])["repro.interrupted"] is True
    assert deliveries[0]["status"]["code"] == 2


def test_dark_delivery_that_dedups_ends_its_own_span(queue, clock):
    """Expiry and redelivery write no row on the dark delivery's span;
    its own late report ends it, with status dedup."""
    submit(queue)
    dark = claim(queue, lease=1.0)
    clock.t += 1.1
    queue.expire_leases()
    live = claim(queue, worker="s/w1")
    assert live.span_ctx != dark.span_ctx
    queue.complete(live.id, live.signature, payload=b"", worker="s/w1", attempt=1,
                   span_ctx=live.span_ctx)
    queue.resolve_deduplicated(dark.id, "s/w0", span_ctx=dark.span_ctx)
    ends = {
        r["span_id"]: r["status"] for r in queue.span_rows() if r["event"] == "end"
    }
    assert ends[TraceContext.from_header(dark.span_ctx).span_id] == "dedup"
    assert ends[TraceContext.from_header(live.span_ctx).span_id] == "ok"


def test_failed_reports_end_their_delivery_as_failed(queue, clock):
    task_id = submit(queue)
    first = claim(queue)
    assert queue.fail_attempt(task_id, "s/w0", "boom", span_ctx=first.span_ctx) == "requeued"
    second = claim(queue)
    stray = new_trace().to_header()
    assert queue.fail_attempt(task_id, "s/w9", "late", span_ctx=stray) == "stale"
    queue.complete(task_id, second.signature, payload=b"", worker="s/w0", attempt=1,
                   span_ctx=second.span_ctx)
    ends = [r["status"] for r in queue.span_rows() if r["event"] == "end"]
    assert ends == ["ok", "failed", "failed", "ok"]  # submit, first, stale, second


def test_export_without_queue_db_is_empty_and_creates_nothing(tmp_path):
    assert list(iter_spans(export_service_otlp(tmp_path))) == []
    assert list(tmp_path.iterdir()) == []


def test_export_merges_span_log_and_saved_runtime_traces(tmp_path, queue):
    from repro.runtime import Runtime, task, wait_on

    @task(returns=1)
    def _x(v):
        return v

    # service spans: one completed delivery, one interrupted
    done_id = submit(queue, "done")
    done = claim(queue)
    queue.complete(done_id, done.signature, payload=b"", worker="s/w0", attempt=0,
                   span_ctx=done.span_ctx)
    submit(queue, "dead")
    dead = claim(queue)  # crash: no report

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
    assert names == ["_x", "deliver", "deliver", "submit", "submit"]
    interrupted = [
        s for s in spans if span_attributes(s).get("repro.interrupted")
    ]
    assert len(interrupted) == 1
    assert interrupted[0]["traceId"] == TraceContext.from_header(dead.span_ctx).trace_id
    runtime_span = next(s for s in spans if s["name"] == "_x")
    assert int(runtime_span["startTimeUnixNano"]) >= int(5000.0 * 1e9)
    resources = [span_attributes(group["resource"]) for group in doc["resourceSpans"]]
    assert any(r.get("service.name") == "repro-service" for r in resources)
    # the saved resource, plus the versions trace_to_otlp names by default
    assert any(
        r.items() >= {
            "service.name": "repro-service-runtime",
            "repro.server_id": "a",
            "repro.pid": 1234,
        }.items()
        and "repro.version" in r
        for r in resources
    )


def test_export_tolerates_corrupt_trace_file(tmp_path, queue):
    submit(queue)
    traces_dir = tmp_path / TRACES_DIR
    traces_dir.mkdir()
    (traces_dir / "trace-bad.json").write_text("{not json")
    # a record-list wrapper is not an OTLP document: skipped the same way
    (traces_dir / "trace-old.json").write_text(
        json.dumps({"server_id": "old", "wall_t0": 0.0, "records": []})
    )
    doc = export_service_otlp(tmp_path)
    assert [s["name"] for s in iter_spans(doc)] == ["submit"]
