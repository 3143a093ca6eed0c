"""Workflow provenance records.

The paper registers each execution on WorkflowHub with COMPSs'
provenance support.  We reproduce the substance: a JSON-serialisable
record describing the run (workflow name, parameters, environment), the
executed task graph, and per-task-type timing statistics — enough to
re-derive every number the run reported.
"""

from __future__ import annotations

import dataclasses
import json
import platform
import time
from typing import Any

import numpy as np

from repro._version import __version__
from repro.runtime.dag import TaskGraph
from repro.runtime.tracing import Trace


@dataclasses.dataclass
class ProvenanceRecord:
    workflow: str
    parameters: dict[str, Any]
    created_at: float
    environment: dict[str, str]
    n_tasks: int
    n_edges: int
    depth: int
    max_width: int
    task_stats: dict[str, dict[str, float]]
    makespan: float
    total_task_time: float
    results: dict[str, Any] = dataclasses.field(default_factory=dict)
    #: Failure-management summary (failed / ignored / retried attempt
    #: counts, per task name) — empty dict for a clean run.
    failures: dict[str, Any] = dataclasses.field(default_factory=dict)
    #: Free-form run events (e.g. dropped federated clients, node
    #: failures), in occurrence order.
    events: list[dict[str, Any]] = dataclasses.field(default_factory=list)
    #: Checkpoint-resume summary (counts of tasks replayed from the
    #: checkpoint store, per task name) — empty dict for a cold run.
    restored: dict[str, Any] = dataclasses.field(default_factory=dict)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(dataclasses.asdict(self), indent=indent, default=_jsonable)

    def save(self, path) -> None:
        """Write the record to *path* as JSON, atomically."""
        from repro.runtime.atomic_write import atomic_write

        atomic_write(path, self.to_json())


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    return str(obj)


def build_provenance(
    workflow: str,
    graph: TaskGraph,
    trace: Trace,
    parameters: dict[str, Any] | None = None,
    results: dict[str, Any] | None = None,
    events: list[dict[str, Any]] | None = None,
) -> ProvenanceRecord:
    """Assemble a provenance record from a finished run.

    ``events`` carries out-of-band occurrences the trace alone cannot
    express (dropped federated clients, node failures);
    failure statistics are derived from the trace's attempt records.
    """
    stats: dict[str, dict[str, float]] = {}
    for name, records in trace.by_name().items():
        # Restored attempts never ran — their zero durations would skew
        # the timing statistics; they are summarised separately below.
        executed = [r for r in records if r.status != "restored"]
        if not executed:
            continue
        durations = np.array([r.duration for r in executed])
        stats[name] = {
            "count": float(len(executed)),
            "mean_s": float(durations.mean()),
            "min_s": float(durations.min()),
            "max_s": float(durations.max()),
            "total_s": float(durations.sum()),
        }
    return ProvenanceRecord(
        workflow=workflow,
        parameters=dict(parameters or {}),
        created_at=time.time(),
        environment={
            "python": platform.python_version(),
            "platform": platform.platform(),
            "repro": __version__,
            "numpy": np.__version__,
        },
        n_tasks=graph.n_tasks,
        n_edges=graph.n_edges,
        depth=graph.depth(),
        max_width=graph.max_width(),
        task_stats=stats,
        makespan=trace.makespan,
        total_task_time=trace.total_task_time,
        results=dict(results or {}),
        failures=_failure_summary(trace),
        events=list(events or []),
        restored=_restored_summary(trace),
    )


def _failure_summary(trace: Trace) -> dict[str, Any]:
    """Summarise failure management from attempt records; empty for a
    clean run so existing provenance consumers see no change."""
    failed = [r for r in trace if r.status == "failed"]
    ignored = [r for r in trace if r.status == "ignored"]
    retried = [r for r in trace if r.attempt > 0]
    if not failed and not ignored and not retried:
        return {}
    by_name: dict[str, dict[str, int]] = {}
    for kind, records in (
        ("failed_attempts", failed),
        ("ignored", ignored),
        ("retries", retried),
    ):
        for r in records:
            by_name.setdefault(r.name, {"failed_attempts": 0, "ignored": 0, "retries": 0})
            by_name[r.name][kind] += 1
    return {
        "failed_attempts": len(failed),
        "ignored": len(ignored),
        "retries": len(retried),
        "by_name": by_name,
    }


def _restored_summary(trace: Trace) -> dict[str, Any]:
    """Summarise checkpoint replay from the trace; empty for a cold run
    so existing provenance consumers see no change."""
    restored = [r for r in trace if r.status == "restored"]
    if not restored:
        return {}
    by_name: dict[str, int] = {}
    for r in restored:
        by_name[r.name] = by_name.get(r.name, 0) + 1
    return {"count": len(restored), "by_name": by_name}
