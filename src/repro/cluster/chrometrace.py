"""Chrome-tracing export of simulated schedules, and the format check.

Produces the Trace Event Format consumed by ``chrome://tracing`` /
Perfetto, giving an interactive timeline of a run — the lightweight
equivalent of the Paraver traces the paper's artifact uploads for its
kNN executions.

:func:`schedule_to_chrome` lays a simulated placement table out one
lane per node.  Recorded runs are spans, and spans have one renderer:
``otlp_to_chrome(trace_to_otlp(trace))`` in :mod:`repro.runtime.otlp`
(per-worker lanes, dependency flow arrows, retry/restore/failure
markers, the data-plane counter lane).  :func:`validate_chrome_json`
checks either output.
"""

from __future__ import annotations

import json

from repro.cluster.simulator import SimResult


def _metadata(pid: int, name: str) -> dict:
    return {"name": "process_name", "ph": "M", "pid": pid, "args": {"name": name}}


def _thread_metadata(pid: int, tid: int, name: str) -> dict:
    return {
        "name": "thread_name",
        "ph": "M",
        "pid": pid,
        "tid": tid,
        "args": {"name": name},
    }


def schedule_to_chrome(result: SimResult, process_name: str = "simulated-cluster") -> str:
    """Render a simulated schedule: one thread lane per node."""
    events = [_metadata(1, process_name)]
    for node in range(result.cluster.n_nodes):
        events.append(
            _thread_metadata(1, node, f"node {node} ({result.cluster.node.cores} cores)")
        )
    for p in result.placements.values():
        events.append(
            {
                "name": f"{p.name}#{p.task_id}",
                "cat": p.name,
                "ph": "X",
                "pid": 1,
                "tid": p.node,
                "ts": p.t_start * 1e6,
                "dur": max(p.duration, 1e-9) * 1e6,
                "args": {"cores": p.cores, "gpus": p.gpus},
            }
        )
    for w in result.checkpoint_writes:
        events.append(
            {
                "name": f"ckpt#{w.task_id}",
                "cat": "checkpoint",
                "ph": "X",
                "pid": 1,
                "tid": w.node,
                "ts": w.t_start * 1e6,
                "dur": max(w.duration, 1e-9) * 1e6,
                "args": {"task_id": w.task_id},
            }
        )
    return json.dumps({"traceEvents": events}, indent=1)


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

