"""Post-mortem analyses of traces and simulated schedules.

Paraver-style views in plain text: per-node Gantt charts, the critical
path through a trace, and time breakdowns per task type — the tools
one uses to explain *why* a curve in Fig. 11 flattens.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.simulator import SimResult
from repro.runtime import observability as obs
from repro.runtime.tracing import Trace


def critical_path(trace: Trace) -> tuple[list[int], float]:
    """Longest duration-weighted dependency chain.

    Returns (task ids along the path, total seconds).  This lower-bounds
    the makespan on any machine — if a sweep's makespan approaches it,
    adding cores cannot help (the paper's CSVM reduction-phase ceiling).
    """
    cp = obs.critical_path(trace)
    return cp.task_ids, cp.length


def time_breakdown(trace: Trace) -> dict[str, dict[str, float]]:
    """Total/mean/share of task time per task type."""
    total = trace.total_task_time or 1.0
    out: dict[str, dict[str, float]] = {}
    for name, records in trace.by_name().items():
        durations = np.array([r.duration for r in records])
        out[name] = {
            "count": float(len(records)),
            "total_s": float(durations.sum()),
            "mean_s": float(durations.mean()),
            "share": float(durations.sum() / total),
        }
    return out


def gantt_text(result: SimResult, width: int = 72) -> str:
    """ASCII Gantt chart of a simulated schedule, one row per node."""
    if not result.placements:
        return "(empty schedule)"
    span = result.makespan or 1.0
    rows = []
    for node in range(result.cluster.n_nodes):
        cells = [" "] * width
        for p in result.placements.values():
            if p.node != node:
                continue
            lo = int(p.t_start / span * (width - 1))
            hi = max(lo + 1, int(p.t_end / span * (width - 1)))
            mark = p.name[0] if p.name else "#"
            for i in range(lo, min(hi, width)):
                cells[i] = "#" if cells[i] != " " else mark
        rows.append(f"node {node:>3} |{''.join(cells)}|")
    rows.append(f"          0s{' ' * (width - 12)}{span:.2f}s")
    return "\n".join(rows)


def idle_fraction(result: SimResult) -> float:
    """Fraction of core-time spent idle over the schedule span."""
    if result.makespan <= 0:
        return 0.0
    return 1.0 - result.utilization()


def failure_report(result: SimResult, baseline_makespan: float | None = None) -> str:
    """Human-readable account of what node failures cost a schedule.

    Pass the makespan of the same simulation without failures as
    ``baseline_makespan`` to get the recovery overhead line.
    """
    lines = []
    if not result.node_failures:
        lines.append("node failures      : none")
    for f in result.node_failures:
        window = (
            f"down for {f.down_for:.2f}s" if f.down_for is not None else "permanent"
        )
        lines.append(f"node failure       : node {f.node} at {f.at:.2f}s ({window})")
    lines.append(f"killed attempts    : {len(result.failed_placements)}")
    lines.append(f"lost task time     : {result.lost_task_time:.3f}s")
    lines.append(f"lost core time     : {result.lost_core_time:.3f} core-s")
    by_name: dict[str, int] = {}
    for p in result.failed_placements:
        by_name[p.name] = by_name.get(p.name, 0) + 1
    for name in sorted(by_name):
        lines.append(f"  killed {name}: {by_name[name]}")
    if result.checkpoint_spec is not None:
        spec = result.checkpoint_spec
        overhead = result.checkpoint_overhead
        lines.append(
            f"checkpoint policy  : every {spec.every} task(s), "
            f"{spec.write_cost:.3f}s per write"
        )
        lines.append(
            f"checkpoint writes  : {len(result.checkpoint_writes)} "
            f"({overhead:.3f}s overhead)"
        )
        if result.failed_placements:
            saved = result.lost_task_time
            verdict = "pays for itself" if overhead <= saved else "costs more than it saves"
            lines.append(
                f"overhead vs lost   : {overhead:.3f}s written vs "
                f"{saved:.3f}s lost work ({verdict})"
            )
    lines.append(f"makespan           : {result.makespan:.3f}s")
    if baseline_makespan is not None and baseline_makespan > 0:
        delta = result.makespan - baseline_makespan
        lines.append(
            f"recovery overhead  : +{delta:.3f}s "
            f"({delta / baseline_makespan * 100:.0f}% over failure-free run)"
        )
    return "\n".join(lines)


def bottleneck_report(trace: Trace, result: SimResult) -> str:
    """Human-readable summary: critical path vs makespan, busiest task
    types, idle fraction — the paper-style scalability explanation."""
    path, cp_time = critical_path(trace)
    names = {r.task_id: r.name for r in trace}
    path_names: list[str] = []
    for tid in path:
        nm = names.get(tid, "?")
        if not path_names or path_names[-1].split(" x")[0] != nm:
            path_names.append(nm)
    breakdown = time_breakdown(trace)
    heaviest = sorted(breakdown.items(), key=lambda kv: -kv[1]["total_s"])[:4]
    lines = [
        f"makespan           : {result.makespan:.3f}s",
        f"critical path      : {cp_time:.3f}s "
        f"({cp_time / result.makespan * 100 if result.makespan else 0:.0f}% of makespan)",
        f"critical task chain: {' -> '.join(path_names)}",
        f"idle core fraction : {idle_fraction(result) * 100:.0f}%",
        "heaviest task types:",
    ]
    for name, stats in heaviest:
        lines.append(
            f"  {name}: {stats['total_s']:.3f}s total over {int(stats['count'])} tasks "
            f"({stats['share'] * 100:.0f}%)"
        )
    return "\n".join(lines)
