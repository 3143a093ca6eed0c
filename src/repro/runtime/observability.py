"""Runtime observability: lifecycle view, progress, analysis.

The engine (:mod:`repro.runtime.engine`) keeps one record per task
attempt — its ``TaskInstance`` in the task table — and stamps the
attempt's transitions on it (``t_submit``, ``t_ready``, ``t_dispatch``,
``t_body_start``, ``t_end``).  Nothing is pushed to observers;
everything here is shaped from a snapshot of that table when somebody
reads:

* :func:`lifecycle_events` — the ``submitted -> ready -> dispatched ->
  running -> done/failed/ignored/cancelled/restored`` history (plus
  ``retry``), as time-ordered rows.  The crash flight recorder
  (:mod:`repro.runtime.flightrec`) dumps the tail of it.
* :class:`ProgressReporter` — a live running/done/failed + ETA line on
  stderr (or a callback), enabled with ``observability="progress"``;
  the engine ticks it as attempts finish and it counts the table at
  render time.

Counts of the run (tasks by state, retries, restores, backend and
store counters) are ``Runtime.stats()``; per-task timings are
``Runtime.trace()`` and its OTLP document.  There is no separate
metrics registry (DESIGN.md §22).

Independent of the table, this module analyses finished
:class:`~repro.runtime.tracing.Trace` objects: :func:`critical_path`
finds the longest duration-weighted dependency chain (what bounds the
makespan no matter how many workers are added) and
:func:`summarize_trace` breaks a run into makespan vs. work vs.
queue-wait vs. runtime overhead.  ``python -m repro trace`` is the CLI
front-end for both.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from typing import Any, Callable, Iterable

from repro.runtime.model import PENDING, TERMINAL_STATES
from repro.runtime.tracing import Trace, TaskRecord, overhead_of, queue_wait_of

# ----------------------------------------------------------------------
# lifecycle row kinds
# ----------------------------------------------------------------------
SUBMITTED = "submitted"
READY = "ready"
DISPATCHED = "dispatched"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
IGNORED = "ignored"
CANCELLED = "cancelled"
RESTORED = "restored"
#: A failed attempt was resubmitted as a fresh DAG node.
RETRY = "retry"

#: Kinds after which the attempt never changes state again.
TERMINAL_KINDS = frozenset({DONE, FAILED, IGNORED, CANCELLED, RESTORED})

#: Valid ``RuntimeConfig(observability=...)`` flags.
OBSERVABILITY_FLAGS = (
    "metrics",  # accepted and inert: the benchmark still passes it (ROADMAP item 1a)
    "progress",
)


def parse_flags(raw: str | None) -> frozenset[str]:
    """Parse an ``observability`` config string into a flag set.

    Accepts a comma/space-separated subset of ``metrics``/``progress``,
    or ``all`` for every flag; ``""``/``None``/``off`` disable
    everything.  Raises :class:`ValueError` on unknown flags (config
    validation surfaces typos instead of silently observing nothing).
    """
    if not raw:
        return frozenset()
    tokens = [t for t in raw.replace(",", " ").split() if t]
    flags: set[str] = set()
    for token in tokens:
        t = token.strip().lower()
        if t in ("off", "none"):
            continue
        if t == "all":
            flags.update(OBSERVABILITY_FLAGS)
        elif t in OBSERVABILITY_FLAGS:
            flags.add(t)
        else:
            raise ValueError(
                f"unknown observability flag {token!r}; expected a subset "
                f"of {OBSERVABILITY_FLAGS} (or 'all'/'off')"
            )
    return frozenset(flags)


#: Keys of one lifecycle row, in the ``repro-flightrec-v1`` dump's order.
_ROW_KEYS = (
    "kind", "t", "task_id", "root_id", "name", "attempt", "state", "pid",
    "worker", "retry_of", "ran", "duration", "queue_wait", "overhead",
)


def lifecycle_events(attempts: Iterable) -> list[dict[str, Any]]:
    """The lifecycle history of *attempts* — a snapshot of the runtime's
    task table, one ``TaskInstance`` per attempt — as time-ordered rows
    in the flight recorder's dump schema.

    Nothing is recorded per transition: each attempt's ``submitted``
    (after ``retry`` on a resubmission), ``ready``, ``dispatched``,
    ``running`` and terminal row (its terminal state, or ``restored``
    for a replayed attempt, whose state is ``"done"``) is rebuilt from
    the stamps the engine leaves on the instance, so a live attempt
    contributes the rows it has reached.  ``t`` is on the clock of
    :class:`~repro.runtime.tracing.TaskRecord`; ``state`` is the
    attempt's state at that transition; ``worker`` is known from
    dispatch on; ``pid`` and — when the body ran (``ran``) —
    ``duration`` / ``queue_wait`` / ``overhead`` sit on the terminal
    row.  A sequential run has no ``ready`` rows; under threads every
    attempt that ran has exactly one, no later than its
    ``dispatched`` row."""
    rows: list[tuple] = []

    def add(inst, kind, t, state_then, pid=None, worker=None, ran=False, spans=(None,) * 3):
        rows.append(
            (kind, t, inst.task_id, inst.root_id, inst.name, inst.attempt, state_then,
             pid, worker, inst.retry_of, ran, *spans)
        )

    for inst in attempts:
        state, t_body, t_end = inst.state, inst.t_body_start, inst.t_end
        worker, ran = inst.worker_name, t_body is not None
        if inst.retry_of is not None:
            add(inst, RETRY, inst.t_submit, PENDING)
        add(inst, SUBMITTED, inst.t_submit, PENDING)
        if inst.t_ready is not None:
            add(inst, READY, inst.t_ready, READY)
        if inst.t_dispatch is not None:
            add(inst, DISPATCHED, inst.t_dispatch, RUNNING, None, worker)
        if ran:
            add(inst, RUNNING, t_body, RUNNING, None, worker, True)
        # ``try_cancel`` flips the state before the engine stamps t_end
        if state in TERMINAL_STATES and t_end is not None:
            kind = RESTORED if inst.status == RESTORED else state
            spans = (None,) * 3
            if ran:
                spans = (
                    t_end - t_body,
                    queue_wait_of(inst.t_ready, inst.t_dispatch),
                    overhead_of(inst.t_submit, inst.t_ready, inst.t_dispatch, t_body),
                )
            add(inst, kind, t_end, state, inst.worker_pid, worker, ran, spans)
    # Stable: rows of one attempt that share a stamp keep lifecycle order.
    rows.sort(key=lambda row: row[1])
    return [dict(zip(_ROW_KEYS, row)) for row in rows]


# ----------------------------------------------------------------------
# live progress
# ----------------------------------------------------------------------
class ProgressReporter:
    """Live workflow progress.

    Renders ``done/submitted`` counts, running/failed tallies, task
    rate and an ETA — to *stream* (default ``sys.stderr``) as a
    ``\\r``-rewritten line, or to *callback* as snapshot dicts (no
    terminal output when a callback is given).  :meth:`tick` only paces
    the rendering, throttled to one line per *min_interval* seconds; the
    numbers are counted at render time from *attempts*, a callable
    returning the runtime's task table (one ``TaskInstance`` per
    attempt).  :meth:`close` emits the final state unconditionally."""

    def __init__(
        self,
        attempts: Callable[[], Iterable],
        stream=None,
        callback: Callable[[dict], None] | None = None,
        min_interval: float = 0.1,
        clock=time.monotonic,
        label: str = "repro",
    ):
        self._attempts = attempts
        self._stream = stream
        self._callback = callback
        self._min_interval = min_interval
        self._clock = clock
        self._label = label
        self._t0 = clock()
        self._last_render = 0.0

    def tick(self) -> None:
        """Render if *min_interval* has passed (the engine calls this
        as an attempt becomes terminal)."""
        # Unlocked: two threads passing the throttle together render
        # twice, which a progress line can afford.
        now = self._clock()
        if now - self._last_render < self._min_interval:
            return
        self._last_render = now
        self._render(self.snapshot())

    # -- snapshots ------------------------------------------------------
    def snapshot(self) -> dict:
        c = dict.fromkeys(
            "submitted running done failed ignored cancelled restored retries".split(), 0
        )
        for inst in self._attempts():
            c["submitted"] += 1
            if inst.retry_of is not None:
                c["retries"] += 1
            state = inst.state
            if state in TERMINAL_STATES:
                c[state] += 1  # a restored attempt ends "done"
                if inst.status == RESTORED:
                    c["restored"] += 1
            elif inst.t_body_start is not None:
                c["running"] += 1
        finished = c["done"] + c["failed"] + c["ignored"] + c["cancelled"]
        elapsed = max(self._clock() - self._t0, 1e-9)
        rate = finished / elapsed
        remaining = c["submitted"] - finished
        eta = remaining / rate if rate > 0 and remaining else 0.0
        return {
            **c,
            "finished": finished,
            "elapsed": elapsed,
            "rate": rate,
            "eta": eta,
        }

    # -- rendering ------------------------------------------------------
    def _render(self, snap: dict, final: bool = False) -> None:
        if self._callback is not None:
            self._callback(snap)
            return
        stream = self._stream if self._stream is not None else sys.stderr
        parts = [
            f"{self._label}: {snap['finished']}/{snap['submitted']} tasks",
            f"{snap['running']} running",
        ]
        if snap["failed"]:
            parts.append(f"{snap['failed']} failed")
        if snap["cancelled"]:
            parts.append(f"{snap['cancelled']} cancelled")
        if snap["restored"]:
            parts.append(f"{snap['restored']} restored")
        parts.append(f"{snap['rate']:.0f} t/s")
        if not final and snap["eta"]:
            parts.append(f"eta {snap['eta']:.1f}s")
        line = " · ".join(parts)
        try:
            stream.write("\r" + line.ljust(78))
            if final:
                stream.write("\n")
            stream.flush()
        except (OSError, ValueError):
            pass  # closed stream: progress is best-effort

    def close(self) -> None:
        """Render the final state (with a newline on terminal streams)."""
        self._render(self.snapshot(), final=True)


# ----------------------------------------------------------------------
# trace analysis: critical path & summary
# ----------------------------------------------------------------------
@dataclasses.dataclass
class CriticalPath:
    """The longest duration-weighted dependency chain of a trace.

    ``length`` (the sum of chain durations) lower-bounds the makespan
    of any re-execution of the same DAG, however many workers are
    available; ``makespan - length`` is the headroom scheduling can
    still recover.  For a real trace, ``length <= makespan`` (chain
    tasks cannot overlap) and ``length >= max(single task duration)``.
    """

    records: list[TaskRecord]
    length: float
    makespan: float
    work: float

    @property
    def task_ids(self) -> list[int]:
        return [r.task_id for r in self.records]

    def by_name(self) -> dict[str, float]:
        """Seconds each task name contributes to the chain, largest first."""
        out: dict[str, float] = {}
        for rec in self.records:
            out[rec.name] = out.get(rec.name, 0.0) + rec.duration
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def critical_path(trace: Trace) -> CriticalPath:
    """Longest duration-weighted chain through the recorded DAG.

    Dependencies always point at earlier task ids (retries included:
    the resubmitted node depends on the failed attempt, so lost time
    sits on the chain), so one ascending pass computes the longest
    path ending at every node."""
    records = {r.task_id: r for r in trace}
    longest: dict[int, float] = {}
    predecessor: dict[int, int | None] = {}
    for tid in sorted(records):
        rec = records[tid]
        best, best_dep = 0.0, None
        for dep in rec.deps:
            via = longest.get(dep)
            # the first of the longest; a zero-length chain (a restored
            # dependency) is still a predecessor
            if via is not None and (best_dep is None or via > best):
                best, best_dep = via, dep
        longest[tid] = best + rec.duration
        predecessor[tid] = best_dep
    if not longest:
        return CriticalPath(records=[], length=0.0, makespan=0.0, work=0.0)
    end = max(longest, key=lambda tid: longest[tid])
    chain: list[TaskRecord] = []
    cursor: int | None = end
    while cursor is not None:
        chain.append(records[cursor])
        cursor = predecessor[cursor]
    chain.reverse()
    return CriticalPath(
        records=chain,
        length=longest[end],
        makespan=trace.makespan,
        work=trace.total_task_time,
    )


def summarize_trace(trace: Trace) -> dict[str, Any]:
    """Makespan / work / wait / overhead breakdown of a finished trace."""
    by_status: dict[str, int] = {}
    by_name: dict[str, dict[str, float]] = {}
    queue_wait = 0.0
    overhead = 0.0
    for rec in trace:
        by_status[rec.status] = by_status.get(rec.status, 0) + 1
        entry = by_name.setdefault(
            rec.name, {"count": 0, "total": 0.0, "max": 0.0}
        )
        entry["count"] += 1
        entry["total"] += rec.duration
        entry["max"] = max(entry["max"], rec.duration)
        queue_wait += rec.queue_wait
        overhead += rec.overhead
    for entry in by_name.values():
        entry["mean"] = entry["total"] / entry["count"] if entry["count"] else 0.0
    cp = critical_path(trace)
    makespan = trace.makespan
    work = trace.total_task_time
    return {
        "n_records": len(trace),
        "n_executed": trace.n_executed,
        "n_restored": trace.n_restored,
        "n_failed_attempts": trace.n_failed_attempts,
        "makespan": makespan,
        "work": work,
        "queue_wait": queue_wait,
        "overhead": overhead,
        "parallelism": (work / makespan) if makespan > 0 else 0.0,
        "critical_path": cp.length,
        "critical_path_tasks": len(cp.records),
        "by_status": by_status,
        "by_name": dict(
            sorted(by_name.items(), key=lambda kv: -kv[1]["total"])
        ),
    }


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.1f}µs"


def format_summary(summary: dict[str, Any]) -> str:
    """Human-readable rendering of :func:`summarize_trace` output."""
    lines = [
        f"records        : {summary['n_records']} "
        f"(executed {summary['n_executed']}, restored {summary['n_restored']}, "
        f"failed attempts {summary['n_failed_attempts']})",
        f"makespan       : {_fmt_s(summary['makespan'])}",
        f"work           : {_fmt_s(summary['work'])} "
        f"(parallelism {summary['parallelism']:.2f}x)",
        f"queue wait     : {_fmt_s(summary['queue_wait'])}",
        f"runtime overhd : {_fmt_s(summary['overhead'])}",
        f"critical path  : {_fmt_s(summary['critical_path'])} "
        f"across {summary['critical_path_tasks']} tasks",
        "by task name:",
    ]
    for name, entry in summary["by_name"].items():
        lines.append(
            f"  {name:<24} x{int(entry['count']):<5} "
            f"total {_fmt_s(entry['total']):>10}  "
            f"mean {_fmt_s(entry['mean']):>10}  max {_fmt_s(entry['max']):>10}"
        )
    return "\n".join(lines)


def format_critical_path(cp: CriticalPath, top: int | None = None) -> str:
    """Human-readable rendering of a :class:`CriticalPath`."""
    lines = [
        f"critical path: {_fmt_s(cp.length)} across {len(cp.records)} tasks "
        f"(makespan {_fmt_s(cp.makespan)}, "
        f"{(cp.length / cp.makespan * 100) if cp.makespan else 0:.0f}% of makespan)",
        "attribution by task name:",
    ]
    for name, seconds in cp.by_name().items():
        lines.append(f"  {name:<24} {_fmt_s(seconds):>10}")
    lines.append("chain (oldest first):")
    shown: Iterable[TaskRecord] = cp.records if top is None else cp.records[-top:]
    for rec in shown:
        lines.append(
            f"  #{rec.task_id:<5} {rec.name:<24} {_fmt_s(rec.duration):>10}"
            + (f"  [{rec.status}]" if rec.status != "done" else "")
        )
    return "\n".join(lines)
