"""Execution tracing.

Every task run is read back as a :class:`TaskRecord` with wall-clock
timestamps, dependency ids, resource constraints and (estimated) input/
output data sizes.  The engine keeps no records of its own:
``Runtime.trace()`` shapes them from the retired instances of its task
table.  A finished :class:`Trace` is the input of the
cluster simulator (:mod:`repro.cluster.replay`), which re-schedules the
same DAG on an arbitrary simulated machine — this is how the paper's
MareNostrum-scale figures are regenerated without the testbed.  A
trace is saved as an OTLP document
(:func:`repro.runtime.otlp.trace_to_otlp`, read back with
:func:`~repro.runtime.otlp.otlp_to_traces`), the one file format of a
run.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterable, Iterator

import numpy as np


_FLAT_TYPES = frozenset((int, float, bool, str, type(None)))


def estimate_nbytes(obj: Any) -> int:
    """Rough payload size of a task argument or result.

    NumPy arrays dominate all our workloads, so everything else gets a
    small constant.  Containers (lists/tuples/sets/dicts) are summed
    through an explicit stack — ds-array blocks arrive as lists of
    lists of arrays, so nesting depth must not matter — with the exact
    types of most arguments tested before the ``isinstance`` chain.
    """
    total = 0
    stack = [obj]
    while stack:
        obj = stack.pop()
        t = type(obj)
        if t in _FLAT_TYPES:
            total += 64  # same answer as the fallthrough below, minus the walk
        elif t is tuple or t is list:
            stack.extend(obj)
        elif t is np.ndarray:
            total += obj.nbytes
        elif t is dict:
            stack.extend(obj.values())
        elif isinstance(obj, (np.ndarray, np.generic, memoryview)):
            total += int(obj.nbytes)
        elif isinstance(obj, (bytes, bytearray)):
            total += len(obj)
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        else:
            nbytes = getattr(obj, "nbytes", None)  # ObjectRef carries its size
            total += nbytes if isinstance(nbytes, int) else 64
    return total


def queue_wait_of(t_ready: float | None, t_dispatch: float | None) -> float:
    """Seconds an attempt sat in the ready queue before a worker
    claimed it (0.0 when the span was not recorded)."""
    if t_ready is None or t_dispatch is None:
        return 0.0
    return max(t_dispatch - t_ready, 0.0)


def overhead_of(
    t_submit: float | None,
    t_ready: float | None,
    t_dispatch: float | None,
    t_start: float,
) -> float:
    """Runtime-attributable seconds between submission and body start,
    excluding ready-queue wait: dependency detection, signature
    hashing, scheduling, argument resolution and backend dispatch
    (serialization under the processes backend)."""
    if t_submit is None:
        return 0.0
    span = max(t_start - t_submit, 0.0)
    return max(span - queue_wait_of(t_ready, t_dispatch), 0.0)


@dataclasses.dataclass
class SchedulerCounters:
    """Monotonic scheduler event counters — the runtime's wakeup and
    contention telemetry, exposed via ``Runtime.stats()["scheduler"]``.

    The event-driven scheduler parks idle threads on condition
    variables and wakes them on events only (enqueue, completion,
    kill, shutdown), never on timers.  These counters make that
    invariant measurable: every wakeup is attributable to an event, so
    parks and wakeups are bounded by task counts and can never scale
    with wall-clock time (a polling scheduler fails that bound
    immediately).

    Fields are plain ints mutated *while holding the runtime lock that
    guards the corresponding event*, which keeps increments exact
    without a dedicated counter lock on the hot path.
    """

    #: Times a thread blocked in ``wait_on``/``barrier`` found neither
    #: ready work nor a satisfied predicate and parked.
    idle_wakeups: int = 0
    #: Times a pool worker found the ready queue empty and parked.
    worker_parks: int = 0
    #: Targeted (single-thread) wakeups issued: one per enqueue, plus
    #: hand-off batons from waiters that exit with work still queued.
    notifies: int = 0
    #: Broadcast wakeups issued (completion, kill, abort, shutdown).
    broadcasts: int = 0
    #: Submissions that found the dependency-detection lock held by a
    #: concurrent submission (lock contention on the submit path).
    submit_contentions: int = 0
    #: Always 0 (no fusion pass); bench/harness.py reads it until ROADMAP item 1.
    fused_tasks: int = 0
    #: Always 0 (no fusion pass); bench/harness.py reads it until ROADMAP item 1.
    fused_units: int = 0

    def snapshot(self) -> dict[str, int]:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class TaskRecord:
    """One executed task *attempt*.

    Runtime resubmissions record every attempt separately: a task that
    failed twice and succeeded on the third try contributes three
    records sharing a ``retry_of`` chain, with ``attempt`` 0, 1, 2 and
    ``status`` ``"failed"``, ``"failed"``, ``"done"``.
    """

    task_id: int
    name: str
    deps: tuple[int, ...]
    t_start: float
    t_end: float
    computing_units: int = 1
    gpus: int = 0
    in_bytes: int = 0
    out_bytes: int = 0
    parent_id: int | None = None
    label: str | None = None
    #: 0-based attempt number (> 0 for runtime resubmissions).
    attempt: int = 0
    #: task_id of the previous attempt, if this record is a retry.
    retry_of: int | None = None
    #: "done" | "failed" | "ignored" (failed, swallowed by IGNORE) |
    #: "restored" (replayed from the checkpoint store, zero duration).
    status: str = "done"
    #: repr of the causing exception for failed/ignored attempts.
    error: str | None = None
    #: pid of the process that ran this attempt's body (None in traces
    #: recorded before backends existed, or for restored attempts).
    pid: int | None = None
    #: Lifecycle span timestamps (same monotonic clock as ``t_start``;
    #: None in traces recorded before the observability layer).
    #: Submission → ready (deps satisfied) → dispatch (worker claimed).
    t_submit: float | None = None
    t_ready: float | None = None
    t_dispatch: float | None = None
    #: Name of the worker thread that drove this attempt.
    worker: str | None = None
    #: Data-plane accounting (zero in traces recorded without the
    #: shared-memory store): bytes freshly mapped into the executing
    #: worker process, and pickle-pipe bytes avoided by passing
    #: references instead of buffers.
    bytes_moved: int = 0
    bytes_saved: int = 0
    #: Distributed-trace identity (W3C-traceparent style, stamped from
    #: the attempt's :class:`~repro.runtime.tracectx.TraceContext`):
    #: the 32-hex trace id shared by every span of one logical request,
    #: this attempt's own 16-hex span id, and the span id of the causal
    #: parent (the submitting task, a service delivery, a stream stage
    #: — or None for a root).  None throughout in traces recorded
    #: before distributed tracing existed.
    trace_id: str | None = None
    span_id: str | None = None
    parent_span_id: str | None = None

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    @property
    def queue_wait(self) -> float:
        """Seconds spent in the ready queue before a worker claimed
        this attempt (0.0 when the span was not recorded)."""
        return queue_wait_of(self.t_ready, self.t_dispatch)

    @property
    def overhead(self) -> float:
        """Runtime-attributable seconds between submit and body start,
        excluding queue wait (0.0 when the span was not recorded)."""
        return overhead_of(self.t_submit, self.t_ready, self.t_dispatch, self.t_start)

    @property
    def ok(self) -> bool:
        return self.status in ("done", "restored")

    @property
    def executed(self) -> bool:
        """True if the task body actually ran (restored attempts did not)."""
        return self.status != "restored"


class Trace:
    """A completed execution trace: an ordered set of task records."""

    def __init__(self, records: Iterable[TaskRecord] = ()):
        self._records: dict[int, TaskRecord] = {}
        for rec in records:
            self.add(rec)

    def add(self, record: TaskRecord) -> None:
        self._records[record.task_id] = record

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TaskRecord]:
        return iter(sorted(self._records.values(), key=lambda r: r.task_id))

    def __getitem__(self, task_id: int) -> TaskRecord:
        return self._records[task_id]

    def __contains__(self, task_id: int) -> bool:
        return task_id in self._records

    @property
    def total_task_time(self) -> float:
        """Sum of all task durations (work, not makespan)."""
        return sum(r.duration for r in self._records.values())

    @property
    def makespan(self) -> float:
        """Wall-clock span of the recorded execution."""
        if not self._records:
            return 0.0
        start = min(r.t_start for r in self._records.values())
        end = max(r.t_end for r in self._records.values())
        return end - start

    def by_name(self) -> dict[str, list[TaskRecord]]:
        out: dict[str, list[TaskRecord]] = {}
        for rec in self:
            out.setdefault(rec.name, []).append(rec)
        return out

    def records(self, name: str | None = None, status: str | None = None) -> list[TaskRecord]:
        """Records filtered by task name and/or attempt status."""
        return [
            r
            for r in self
            if (name is None or r.name == name) and (status is None or r.status == status)
        ]

    def attempts_of(self, root_id: int) -> list[TaskRecord]:
        """All attempt records of one logical task, oldest first,
        following the ``retry_of`` chain from its first attempt."""
        by_retry_of: dict[int, TaskRecord] = {
            r.retry_of: r for r in self._records.values() if r.retry_of is not None
        }
        chain: list[TaskRecord] = []
        rec = self._records.get(root_id)
        while rec is not None:
            chain.append(rec)
            rec = by_retry_of.get(rec.task_id)
        return chain

    @property
    def n_failed_attempts(self) -> int:
        return sum(
            1 for r in self._records.values() if r.status not in ("done", "restored")
        )

    @property
    def n_restored(self) -> int:
        """Tasks replayed from the checkpoint store instead of executed."""
        return sum(1 for r in self._records.values() if r.status == "restored")

    @property
    def n_executed(self) -> int:
        """Attempts whose body actually ran (everything but restored)."""
        return sum(1 for r in self._records.values() if r.status != "restored")

    @property
    def total_bytes_moved(self) -> int:
        """Bytes freshly mapped into worker processes (data plane)."""
        return sum(r.bytes_moved for r in self._records.values())

    @property
    def total_bytes_saved(self) -> int:
        """Pickle-pipe bytes avoided by reference passing (data plane)."""
        return sum(r.bytes_saved for r in self._records.values())

    def mean_duration(self, name: str) -> float:
        recs = [r for r in self if r.name == name]
        if not recs:
            raise KeyError(f"no tasks named {name!r} in trace")
        return float(np.mean([r.duration for r in recs]))

    def scaled(self, factor: float) -> "Trace":
        """A copy with every duration *and* inter-task gap multiplied
        by *factor*, re-anchored to the trace's own start so absolute
        (epoch-like) timestamps don't explode: every timestamp maps to
        ``t0 + (t - t0) * factor``.  The scaled makespan is exactly
        ``makespan * factor``.

        Used to extrapolate small local runs to paper-scale problem
        sizes before replaying on the simulated cluster.
        """
        if not self._records:
            return Trace()
        t0 = min(r.t_start for r in self._records.values())

        def remap(t: float | None) -> float | None:
            return None if t is None else t0 + (t - t0) * factor

        out = Trace()
        for rec in self:
            scaled = dataclasses.replace(
                rec,
                t_start=remap(rec.t_start),
                t_end=remap(rec.t_end),
                t_submit=remap(rec.t_submit),
                t_ready=remap(rec.t_ready),
                t_dispatch=remap(rec.t_dispatch),
            )
            out.add(scaled)
        return out
