"""The Trace Event Format check the chrome://tracing exports are held
to (``repro.runtime.otlp.otlp_to_chrome`` is the one renderer)."""

from __future__ import annotations

import json


def validate_chrome_json(text: str) -> list[dict]:
    """Validate the Trace Event Format shape of *text*; returns the
    event list or raises :class:`ValueError`.

    Checks what ``about:tracing`` requires to load the file: a
    ``traceEvents`` list, a known phase per event, pid/tid/ts fields on
    timeline events, a duration on complete events, and matched
    flow-event pairs."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        raise ValueError("chrome trace must be an object with a traceEvents list")
    events = doc["traceEvents"]
    flows: dict[tuple, set[str]] = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"event {i} is not an object")
        ph = ev.get("ph")
        if ph not in ("X", "M", "i", "s", "f", "B", "E", "C"):
            raise ValueError(f"event {i} has unknown phase {ph!r}")
        if ph == "M":
            continue
        for field in ("pid", "tid", "ts"):
            if not isinstance(ev.get(field), (int, float)):
                raise ValueError(f"event {i} ({ph}) lacks numeric {field!r}")
        if ev["ts"] < 0:
            raise ValueError(f"event {i} has negative timestamp")
        if ph == "X" and not isinstance(ev.get("dur"), (int, float)):
            raise ValueError(f"complete event {i} lacks a duration")
        if ph == "C" and not isinstance(ev.get("args"), dict):
            raise ValueError(f"counter event {i} lacks an args series dict")
        if ph in ("s", "f"):
            flows.setdefault(("flow", ev.get("id")), set()).add(ph)
    for (_, flow_id), phases in flows.items():
        if phases != {"s", "f"}:
            raise ValueError(f"flow {flow_id} is unmatched (phases {sorted(phases)})")
    return events
