"""OTLP-shaped span export.

Renders repro traces as the OpenTelemetry OTLP/JSON trace shape
(``resourceSpans`` → ``scopeSpans`` → ``spans`` with hex ``traceId`` /
``spanId`` / ``parentSpanId``, Unix-nano timestamps and typed
attributes), without depending on any OpenTelemetry package — the
output is plain dicts/JSON that OTLP-compatible tooling ingests
directly and that tests can walk structurally.

Two producers feed it:

* :func:`trace_to_otlp` — a runtime
  :class:`~repro.runtime.tracing.Trace` whose records carry the
  ``trace_id``/``span_id``/``parent_span_id`` stamped by the engine;
  records without them (``collect_trace`` off) get a synthesized
  per-export trace id.  Each recorded dependency becomes a span *link*
  to its producer's span, and every other field of a
  :class:`~repro.runtime.tracing.TaskRecord` is a ``repro.*``
  attribute, so :func:`otlp_to_traces` gives the trace back.
* :func:`spans_to_otlp` — durable **service spans** (the start/end
  rows :meth:`repro.service.queue.DurableQueue.span_rows` rebuilds
  from the queue's provenance log): client submissions and worker
  deliveries, including deliveries interrupted by a crash (no end row
  → the span is exported with an ``repro.interrupted`` attribute and
  zero duration, so the trace tree still shows the dead incarnation's
  attempt).

:func:`merge_otlp` concatenates resource groups from several
producers into one document — the ``repro trace --service`` view of
one request across client, two server incarnations and worker
processes.  :func:`otlp_to_chrome` is the one chrome://tracing
renderer: every timeline, of a single runtime trace or of a merged
service document, is drawn from an OTLP document.  The document is
the one file format of a run: ``repro trace`` reads nothing else.
"""

from __future__ import annotations

import json
import os
import platform
from typing import Any, Iterable, Mapping, Optional

import numpy as np

from repro._version import __version__
from repro.runtime.tracing import TaskRecord, Trace

__all__ = [
    "trace_to_otlp",
    "otlp_to_traces",
    "resource_label",
    "spans_to_otlp",
    "merge_otlp",
    "iter_spans",
    "span_attributes",
    "otlp_to_chrome",
    "save_otlp",
]

_NANO = 1_000_000_000

#: The TaskRecord fields a task span carries as ``repro.*`` attributes;
#: the name, the times, the dependencies and the trace identity travel
#: in the span's own fields.
_RECORD_ATTRS = {
    "computing_units": "repro.cores",
    **{
        field: f"repro.{field}"
        for field in (
            "task_id", "attempt", "status", "pid", "worker", "retry_of", "error", "gpus",
            "bytes_moved", "bytes_saved", "parent_id", "label", "in_bytes", "out_bytes",
        )
    },
}
#: Lifecycle stamps, as Unix nanoseconds on the span clock.
_STAMPS = ("t_submit", "t_ready", "t_dispatch")


def _attr(key: str, value: Any) -> dict[str, Any]:
    if isinstance(value, bool):
        return {"key": key, "value": {"boolValue": value}}
    if isinstance(value, int):
        return {"key": key, "value": {"intValue": str(value)}}
    if isinstance(value, float):
        return {"key": key, "value": {"doubleValue": value}}
    return {"key": key, "value": {"stringValue": str(value)}}


def _attrs(mapping: Mapping[str, Any]) -> list[dict[str, Any]]:
    return [_attr(k, v) for k, v in mapping.items() if v is not None]


def _resource_group(
    resource: Mapping[str, Any], spans: list[dict[str, Any]]
) -> dict[str, Any]:
    return {
        "resource": {"attributes": _attrs(resource)},
        "scopeSpans": [{"scope": {"name": "repro"}, "spans": spans}],
    }


def _nanos(seconds: float) -> str:
    return str(int(seconds * _NANO))


def _seconds(nanos: Any) -> float:
    return int(nanos) / _NANO


def trace_to_otlp(
    trace: Trace,
    *,
    wall_t0: float = 0.0,
    resource: Optional[Mapping[str, Any]] = None,
) -> dict[str, Any]:
    """One runtime trace as an OTLP/JSON document.

    Record timestamps are monotonic seconds relative to the runtime's
    epoch; *wall_t0* (Unix seconds of that epoch) anchors them to wall
    clock so traces from different processes land on one timeline.
    Each dependency on a recorded producer is a link to that producer's
    span.  The default resource names the repro, Python and numpy
    versions the run used.
    """
    fallback_trace_id = os.urandom(16).hex()
    ids = {
        rec.task_id: (
            rec.trace_id or fallback_trace_id,
            rec.span_id or format(rec.task_id & 0xFFFFFFFFFFFFFFFF, "016x"),
        )
        for rec in trace
    }
    spans: list[dict[str, Any]] = []
    for rec in trace:
        trace_id, span_id = ids[rec.task_id]
        span: dict[str, Any] = {
            "traceId": trace_id,
            "spanId": span_id,
            "name": rec.name,
            "kind": 1,  # SPAN_KIND_INTERNAL
            "startTimeUnixNano": _nanos(wall_t0 + rec.t_start),
            "endTimeUnixNano": _nanos(wall_t0 + rec.t_end),
            "attributes": _attrs(
                {
                    **{attr: getattr(rec, field) for field, attr in _RECORD_ATTRS.items()},
                    **{
                        f"repro.{stamp}": int((wall_t0 + t) * _NANO)
                        for stamp in _STAMPS
                        if (t := getattr(rec, stamp)) is not None
                    },
                    "repro.queue_wait_us": rec.queue_wait * 1e6,
                    "repro.overhead_us": rec.overhead * 1e6,
                }
            ),
            "status": {"code": 1 if rec.ok else 2},
        }
        if rec.parent_span_id:
            span["parentSpanId"] = rec.parent_span_id
        links = [
            {"traceId": ids[dep][0], "spanId": ids[dep][1]} for dep in rec.deps if dep in ids
        ]
        if links:
            span["links"] = links
        spans.append(span)
    res = {
        "service.name": "repro-runtime",
        "repro.version": __version__,
        "process.runtime.version": platform.python_version(),
        "repro.numpy.version": np.__version__,
    }
    if resource:
        res.update(resource)
    return {"resourceSpans": [_resource_group(res, spans)]}


def otlp_to_traces(document: Mapping[str, Any]) -> list[tuple[dict[str, Any], Trace]]:
    """The runtime traces in an OTLP document, the inverse of
    :func:`trace_to_otlp`: one ``(resource attributes, Trace)`` per
    resource group whose spans carry ``repro.task_id`` (service
    ``submit``/``deliver`` groups have none and are skipped).  Links to
    spans of the same group are the dependencies; times are seconds on
    the span clock (the recorded ones for a document written with
    ``wall_t0=0``)."""
    out = []
    for group in document.get("resourceSpans", ()):
        spans = [(span, span_attributes(span)) for span in _group_spans(group)]
        spans = [(span, attrs) for span, attrs in spans if "repro.task_id" in attrs]
        if not spans:
            continue
        ids = {(span.get("traceId"), span.get("spanId")): attrs["repro.task_id"]
               for span, attrs in spans}
        trace = Trace()
        for span, attrs in spans:
            links = {(link.get("traceId"), link.get("spanId")) for link in span.get("links", ())}
            trace.add(TaskRecord(
                name=span["name"],
                deps=tuple(sorted(ids[link] for link in links if link in ids)),
                t_start=_seconds(span["startTimeUnixNano"]),
                t_end=_seconds(span["endTimeUnixNano"]),
                trace_id=span.get("traceId"),
                span_id=span.get("spanId"),
                parent_span_id=span.get("parentSpanId"),
                **{field: attrs[attr] for field, attr in _RECORD_ATTRS.items() if attr in attrs},
                **{stamp: _seconds(attrs[f"repro.{stamp}"])
                   for stamp in _STAMPS if f"repro.{stamp}" in attrs},
            ))
        out.append((span_attributes(group.get("resource", {})), trace))
    return out


def resource_label(resource: Mapping[str, Any]) -> str:
    """``service.name [server_id]`` of a group's resource attributes."""
    service = resource.get("service.name", "repro")
    if resource.get("repro.server_id"):
        service = f"{service} [{resource['repro.server_id']}]"
    return service


def spans_to_otlp(
    rows: Iterable[Mapping[str, Any]],
    *,
    resource: Optional[Mapping[str, Any]] = None,
) -> dict[str, Any]:
    """Durable service span rows (see
    :meth:`repro.service.queue.DurableQueue.span_rows`) as an OTLP/JSON
    document.  Rows are start/end pairs keyed by span
    id; a start without an end is an **interrupted** span (the writing
    process died mid-delivery) and is exported with zero duration and
    ``repro.interrupted = true``."""
    starts: dict[str, dict[str, Any]] = {}
    ends: dict[str, dict[str, Any]] = {}
    for row in rows:
        span_id = row.get("span_id")
        if not span_id:
            continue
        if row.get("event") == "end":
            ends[span_id] = dict(row)
        else:
            starts[span_id] = dict(row)
    spans: list[dict[str, Any]] = []
    for span_id, start in starts.items():
        end = ends.get(span_id)
        t_start = float(start.get("t_start", 0.0))
        interrupted = end is None
        t_end = t_start if interrupted else float(end.get("t_end", t_start))
        attributes = dict(start.get("attributes") or {})
        if end is not None:
            attributes.update(end.get("attributes") or {})
        if interrupted:
            attributes["repro.interrupted"] = True
        # "failed"/"error" and crash-interrupted spans export as error
        # status; informational statuses ("ok", "dedup", ...) do not.
        status_ok = (end or {}).get("status", "interrupted") not in (
            "failed",
            "error",
            "interrupted",
        )
        span: dict[str, Any] = {
            "traceId": start["trace_id"],
            "spanId": span_id,
            "name": start.get("name", "span"),
            "kind": 1,
            "startTimeUnixNano": _nanos(t_start),
            "endTimeUnixNano": _nanos(t_end),
            "attributes": _attrs(attributes),
            "status": {"code": 1 if status_ok else 2},
        }
        if start.get("parent_id"):
            span["parentSpanId"] = start["parent_id"]
        spans.append(span)
    res = {"service.name": "repro-service"}
    if resource:
        res.update(resource)
    return {"resourceSpans": [_resource_group(res, spans)]}


def merge_otlp(*documents: Mapping[str, Any]) -> dict[str, Any]:
    """Concatenate the resource groups of several OTLP documents."""
    groups: list[dict[str, Any]] = []
    for doc in documents:
        groups.extend(doc.get("resourceSpans", ()))
    return {"resourceSpans": groups}


def _group_spans(group: Mapping[str, Any]) -> Iterable[dict[str, Any]]:
    for scope in group.get("scopeSpans", ()):
        yield from scope.get("spans", ())


def iter_spans(document: Mapping[str, Any]) -> Iterable[dict[str, Any]]:
    """Flat iterator over every span in an OTLP document (tests and
    CLI summaries walk this instead of the nesting)."""
    for group in document.get("resourceSpans", ()):
        yield from _group_spans(group)


def span_attributes(span: Mapping[str, Any]) -> dict[str, Any]:
    """A span's attribute list as a plain ``{key: value}`` dict."""
    out: dict[str, Any] = {}
    for attr in span.get("attributes", ()):
        value = attr.get("value", {})
        if "intValue" in value:
            out[attr["key"]] = int(value["intValue"])
        elif "doubleValue" in value:
            out[attr["key"]] = float(value["doubleValue"])
        elif "boolValue" in value:
            out[attr["key"]] = bool(value["boolValue"])
        else:
            out[attr["key"]] = value.get("stringValue")
    return out


def _metadata(kind: str, pid: int, tid: int, name: str) -> dict[str, Any]:
    return {"ph": "M", "pid": pid, "tid": tid, "name": kind, "args": {"name": name}}


def _marker(
    name: str, cat: str, pid: int, tid: int, ts: float, args: dict[str, Any]
) -> dict[str, Any]:
    return {
        "name": name, "cat": cat, "ph": "i", "s": "t", "pid": pid, "tid": tid, "ts": ts,
        "args": args,
    }


def otlp_to_chrome(document: Mapping[str, Any]) -> dict[str, Any]:
    """An OTLP document as a chrome://tracing timeline.

    * One process row per (resource, ``repro.pid``) — the client span
      log, each server incarnation, each worker process of a runtime —
      and one thread lane per worker within it; attempts without a
      worker share one ``main`` lane.
    * Spans are complete ("X") events; zero-duration spans (client
      ``submit`` points, crash-interrupted deliveries, restored
      attempts) are instant events.
    * A link whose target span is in the document is a flow arrow: "s"
      at the producer's end, "f" (``bp: "e"``) at the later of the
      consumer's start and the producer's end.
    * Retries, checkpoint restores and failures get instant markers.
    * A resource in which some span moved data-plane bytes gets a
      cumulative ``moved``/``saved`` counter ("C") lane, sampled at each
      of its spans' ends.

    Timestamps are microseconds, rebased so the earliest span starts
    at 0.
    """
    groups = list(document.get("resourceSpans", ()))
    t0 = min(
        (int(s.get("startTimeUnixNano", 0)) for g in groups for s in _group_spans(g)),
        default=0,
    )
    events: list[dict[str, Any]] = []
    rows: dict[tuple[int, Any], int] = {}
    lanes: dict[tuple[int, str], int] = {}
    ends: dict[tuple[Any, Any], tuple[int, int, float]] = {}
    placed: list[tuple[dict[str, Any], int, int, float]] = []
    for index, group in enumerate(groups):
        res = span_attributes(group.get("resource", {}))
        service = resource_label(res)
        samples: list[tuple[float, int, int]] = []
        for span in _group_spans(group):
            attrs = span_attributes(span)
            os_pid = attrs.get("repro.pid", res.get("repro.pid"))
            pid = rows.get((index, os_pid))
            if pid is None:
                pid = rows[index, os_pid] = len(rows) + 1
                label = service if os_pid is None else f"{service} pid {os_pid}"
                events.append(_metadata("process_name", pid, 0, label))
            lane = str(attrs.get("repro.worker") or attrs.get("worker") or "main")
            tid = lanes.get((pid, lane))
            if tid is None:
                tid = lanes[pid, lane] = len(lanes) + 1
                events.append(_metadata("thread_name", pid, tid, lane))

            ts = (int(span.get("startTimeUnixNano", 0)) - t0) / 1000.0
            end = (int(span.get("endTimeUnixNano", 0)) - t0) / 1000.0
            args = dict(attrs, traceId=span.get("traceId"), spanId=span.get("spanId"))
            if span.get("parentSpanId"):
                args["parentSpanId"] = span["parentSpanId"]
            name = span.get("name", "span")
            error = span.get("status", {}).get("code") == 2
            event: dict[str, Any] = {
                "name": name,
                "cat": "error" if error else "span",
                "pid": pid,
                "tid": tid,
                "ts": ts,
                "args": args,
            }
            if end > ts:
                event.update(ph="X", dur=end - ts)
            else:
                event.update(ph="i", s="t")  # instant, thread-scoped
            events.append(event)

            task = f"{name}#{attrs.get('repro.task_id')}"
            retry_of, attempt = attrs.get("repro.retry_of"), attrs.get("repro.attempt")
            if retry_of is not None:
                events.append(_marker(
                    f"retry of #{retry_of} (attempt {attempt})", "retry", pid, tid, ts,
                    {"retry_of": retry_of, "attempt": attempt},
                ))
            if attrs.get("repro.status") == "restored":
                events.append(_marker(
                    f"restored {task}", "checkpoint", pid, tid, ts,
                    {"task_id": attrs.get("repro.task_id")},
                ))
            elif attrs.get("repro.status") == "failed":
                events.append(_marker(
                    f"failed {task}", "failure", pid, tid, end,
                    {"error": attrs.get("repro.error")},
                ))

            ends[span.get("traceId"), span.get("spanId")] = (pid, tid, end)
            placed.append((span, pid, tid, ts))
            samples.append(
                (end, attrs.get("repro.bytes_moved", 0), attrs.get("repro.bytes_saved", 0))
            )

        if any(moved or saved for _, moved, saved in samples):
            lane_pid = min(p for (i, _), p in rows.items() if i == index)
            moved_total = saved_total = 0
            for end, moved, saved in sorted(samples, key=lambda sample: sample[0]):
                moved_total += moved
                saved_total += saved
                events.append(
                    {
                        "name": "data plane (bytes)",
                        "cat": "dataplane",
                        "ph": "C",
                        "pid": lane_pid,
                        "tid": 0,
                        "ts": end,
                        "args": {"moved": moved_total, "saved": saved_total},
                    }
                )

    flow_id = 0
    for span, pid, tid, ts in placed:
        for link in span.get("links", ()):
            producer = ends.get((link.get("traceId"), link.get("spanId")))
            if producer is None:
                continue  # linked span not in this document
            ppid, ptid, producer_end = producer
            flow_id += 1
            events.append(
                {"name": "dep", "cat": "dataflow", "ph": "s", "id": flow_id,
                 "pid": ppid, "tid": ptid, "ts": producer_end}
            )
            events.append(
                {"name": "dep", "cat": "dataflow", "ph": "f", "bp": "e", "id": flow_id,
                 "pid": pid, "tid": tid, "ts": max(ts, producer_end)}
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def save_otlp(document: Mapping[str, Any], path) -> None:
    from repro.runtime.atomic_write import atomic_write

    atomic_write(path, json.dumps(document, indent=2) + "\n")
