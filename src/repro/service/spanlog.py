"""Durable span log of the queue service.

The service's causal chain crosses process lifetimes — a client
submits, server A claims and is ``kill -9``-ed mid-lease, server B
redelivers and completes — so its spans cannot live in any process's
memory.  They live where the tasks live: next to ``queue.db``, as an
append-only JSON-lines file ``spans.jsonl``.

Each row is a **start** or an **end** event keyed by span id::

    {"event": "start", "trace_id": ..., "span_id": ..., "parent_id": ...,
     "name": "deliver", "t_start": <unix s>, "attributes": {...}}
    {"event": "end", "span_id": ..., "t_end": <unix s>, "status": "ok",
     "attributes": {...}}

Appends are single ``write()`` calls of one line on a file opened in
append mode — atomic enough on POSIX for concurrent writers (client
processes and server workers share the file), and crash-safe by
construction: a process that dies after ``start`` simply never writes
``end``, which the exporter (:func:`repro.runtime.otlp.spans_to_otlp`)
renders as an *interrupted* span.  No locks, no transactions, no
rewrites — exactly the property a flight-recorder-grade artifact
needs.

:func:`export_service_otlp` is the one-call export: service spans +
every drained server incarnation's runtime trace (saved under
``traces/`` as an OTLP document by :meth:`QueueService.drain`) merged
into a single OTLP document spanning client, servers and worker
processes.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Iterator, Mapping, Optional

from repro.runtime import otlp
from repro.runtime.tracectx import TraceContext

__all__ = ["SpanLog", "export_service_otlp", "read_span_rows"]

SPANS_FILE = "spans.jsonl"
TRACES_DIR = "traces"


class SpanLog:
    """Append-only span writer over a service data directory."""

    def __init__(self, data_dir: str | os.PathLike):
        self.path = Path(data_dir) / SPANS_FILE

    def start(
        self,
        ctx: TraceContext,
        name: str,
        *,
        t_start: float | None = None,
        **attributes: Any,
    ) -> None:
        self._append(
            {
                "event": "start",
                "trace_id": ctx.trace_id,
                "span_id": ctx.span_id,
                "parent_id": ctx.parent_id,
                "name": name,
                "t_start": time.time() if t_start is None else t_start,
                "attributes": {k: v for k, v in attributes.items() if v is not None},
            }
        )

    def end(
        self,
        ctx: TraceContext,
        *,
        status: str = "ok",
        t_end: float | None = None,
        **attributes: Any,
    ) -> None:
        self._append(
            {
                "event": "end",
                "span_id": ctx.span_id,
                "t_end": time.time() if t_end is None else t_end,
                "status": status,
                "attributes": {k: v for k, v in attributes.items() if v is not None},
            }
        )

    def point(
        self, ctx: TraceContext, name: str, **attributes: Any
    ) -> None:
        """An instantaneous span (start and end at the same moment) —
        client submissions use this."""
        now = time.time()
        self.start(ctx, name, t_start=now, **attributes)
        self.end(ctx, t_end=now)

    def _append(self, row: dict[str, Any]) -> None:
        line = json.dumps(row, default=repr) + "\n"
        # One write() of one line in append mode: concurrent writers
        # (clients + server workers) interleave at line granularity.
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line)


def read_span_rows(data_dir: str | os.PathLike) -> Iterator[dict[str, Any]]:
    """Rows of a data directory's span log (tolerates a truncated
    final line — the writer may have died mid-append)."""
    path = Path(data_dir) / SPANS_FILE
    if not path.exists():
        return
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError:
                continue


def export_service_otlp(
    data_dir: str | os.PathLike,
    *,
    resource: Optional[Mapping[str, Any]] = None,
) -> dict[str, Any]:
    """The full OTLP document of one service data directory: durable
    client/worker spans merged with the OTLP document each drained
    server incarnation saved of its runtime trace.  A ``trace-*.json``
    that is unreadable or not an OTLP document is skipped."""
    documents = [otlp.spans_to_otlp(read_span_rows(data_dir), resource=resource)]
    for path in sorted((Path(data_dir) / TRACES_DIR).glob("trace-*.json")):
        try:
            with open(path, encoding="utf-8") as fh:
                document = json.load(fh)
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(document, dict) and isinstance(document.get("resourceSpans"), list):
            documents.append(document)
    return otlp.merge_otlp(*documents)
