"""Discrete-event simulation of a task-graph execution on a cluster.

Replays a recorded :class:`~repro.runtime.tracing.Trace` on a
:class:`~repro.cluster.resources.ClusterSpec` using locality-aware list
scheduling: tasks become ready when their dependencies complete, are
prioritised by bottom level (longest downstream path), and are placed
on the node that lets them start earliest, charging an interconnect
transfer penalty when input data lives on another node.

This is how the paper-scale scalability figures are regenerated
without a supercomputer: the DAG shape and per-task durations come from
a real (local) execution, while node counts, cores-per-node and
cores-per-task follow the paper's testbed configuration.
"""

from __future__ import annotations

import dataclasses
import heapq
from typing import Iterable, Mapping

from repro.cluster.costmodel import CostModel, IDENTITY
from repro.cluster.resources import ClusterSpec
from repro.runtime.tracing import TaskRecord, Trace


@dataclasses.dataclass(frozen=True)
class Placement:
    """Where and when one task ran in the simulation."""

    task_id: int
    name: str
    node: int
    t_start: float
    t_end: float
    cores: int
    gpus: int

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


@dataclasses.dataclass(frozen=True)
class NodeFailure:
    """A node-failure event injected into the simulation.

    The node goes down at time ``at``: every task in flight there is
    killed (its partial work is lost and it is re-executed elsewhere),
    and no new task is placed on the node while it is down.  With
    ``down_for=None`` the failure is permanent; otherwise the node
    rejoins after that many seconds with all cores free.
    """

    node: int
    at: float
    down_for: float | None = None

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ValueError("node must be >= 0")
        if self.at < 0:
            raise ValueError("at must be >= 0")
        if self.down_for is not None and self.down_for <= 0:
            raise ValueError("down_for must be positive (or None for permanent)")


class DeadClusterError(RuntimeError):
    """Tasks remain but every node is down with no revival scheduled."""


@dataclasses.dataclass(frozen=True)
class CheckpointSpec:
    """Periodic checkpoint writes in the simulation.

    Every ``every``-th task placement (counted globally, in scheduling
    order) pays ``write_cost`` extra seconds before its node frees up —
    the task's result being persisted to stable storage.  The writes
    appear in :attr:`SimResult.checkpoint_writes`, so
    :func:`~repro.cluster.analysis.failure_report` can price the
    checkpoint overhead against the lost work it would save on a node
    failure.
    """

    every: int = 1
    write_cost: float = 0.0

    def __post_init__(self) -> None:
        if self.every < 1:
            raise ValueError("every must be >= 1")
        if self.write_cost < 0:
            raise ValueError("write_cost must be >= 0")


@dataclasses.dataclass(frozen=True)
class CheckpointWrite:
    """One simulated checkpoint write, at the tail of a task."""

    task_id: int
    node: int
    t_start: float
    t_end: float

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


@dataclasses.dataclass
class SimResult:
    """Outcome of one simulated execution."""

    cluster: ClusterSpec
    placements: dict[int, Placement]
    makespan: float
    #: Truncated placements of attempts killed by node failures; their
    #: duration is work the cluster performed and threw away.
    failed_placements: list[Placement] = dataclasses.field(default_factory=list)
    #: The failure events the simulation was run with.
    node_failures: tuple[NodeFailure, ...] = ()
    #: Checkpoint writes performed (empty without a checkpoint spec).
    checkpoint_writes: list[CheckpointWrite] = dataclasses.field(default_factory=list)
    #: The checkpoint policy the simulation was run with, if any.
    checkpoint_spec: CheckpointSpec | None = None

    @property
    def checkpoint_overhead(self) -> float:
        """Seconds spent writing checkpoints (completed writes only)."""
        return sum(w.duration for w in self.checkpoint_writes)

    @property
    def lost_task_time(self) -> float:
        """Task-seconds of partial work destroyed by node failures."""
        return sum(p.duration for p in self.failed_placements)

    @property
    def lost_core_time(self) -> float:
        """Core-seconds of partial work destroyed by node failures."""
        return sum(p.duration * p.cores for p in self.failed_placements)

    def utilization(self) -> float:
        """Busy core-time over available core-time."""
        if self.makespan <= 0:
            return 0.0
        busy = sum(p.duration * p.cores for p in self.placements.values())
        return busy / (self.cluster.total_cores * self.makespan)


class OversubscribedTaskError(ValueError):
    """A task requires more cores or GPUs than any node provides."""


def simulate(
    trace: Trace,
    cluster: ClusterSpec,
    cost_model: CostModel = IDENTITY,
    cores_per_task: Mapping[str, int] | None = None,
    gpus_per_task: Mapping[str, int] | None = None,
    policy: str = "locality",
    failures: Iterable[NodeFailure] = (),
    checkpoint: CheckpointSpec | None = None,
) -> SimResult:
    """Simulate executing *trace*'s DAG on *cluster*.

    ``cores_per_task`` / ``gpus_per_task`` override the recorded
    constraints per task name — the paper varies these between runs
    (e.g. 8 cores/task for CSVM, 4 for KNN, 1 or 4 GPUs per CNN task).

    ``policy`` selects node placement among feasible nodes:

    * ``"locality"`` (default, COMPSs-like): earliest data-ready start,
      i.e. prefer the node holding the task's inputs;
    * ``"round_robin"``: cycle nodes regardless of data placement —
      pays every transfer; useful to quantify locality's value.

    ``failures`` injects :class:`NodeFailure` events: tasks in flight on
    a failing node are killed and rescheduled (COMPSs task resubmission
    after a worker loss), their partial work accumulating in
    :attr:`SimResult.failed_placements`.  Data previously produced on
    the failed node stays readable — the model assumes results are
    replicated off-node (only in-flight work is lost), which keeps the
    lost-time accounting a lower bound.

    ``checkpoint`` prices a :class:`CheckpointSpec` into the schedule:
    every ``every``-th placed task runs ``write_cost`` seconds longer
    (its result being persisted), and the completed writes are recorded
    in :attr:`SimResult.checkpoint_writes`.  Tasks killed by a node
    failure never complete their write.
    """
    if policy not in ("locality", "round_robin"):
        raise ValueError(f"unknown scheduling policy {policy!r}")
    failures = tuple(failures)
    for f in failures:
        if f.node >= cluster.n_nodes:
            raise ValueError(
                f"failure targets node {f.node}, cluster has {cluster.n_nodes}"
            )
    records = list(trace)
    if not records:
        return SimResult(
            cluster, {}, 0.0, node_failures=failures, checkpoint_spec=checkpoint
        )
    ids = {r.task_id for r in records}

    def cores_of(r: TaskRecord) -> int:
        c = (cores_per_task or {}).get(r.name, r.computing_units)
        if c > cluster.node.cores:
            raise OversubscribedTaskError(
                f"task {r.name} needs {c} cores, node has {cluster.node.cores}"
            )
        return c

    def gpus_of(r: TaskRecord) -> int:
        g = (gpus_per_task or {}).get(r.name, r.gpus)
        if g > cluster.node.gpus:
            raise OversubscribedTaskError(
                f"task {r.name} needs {g} GPUs, node has {cluster.node.gpus}"
            )
        return g

    # Base durations under the cost model (speed applied per node).
    base_durations = {
        r.task_id: cost_model.duration(r, node_speed=1.0) for r in records
    }
    speeds = [cluster.speed_of(n) for n in range(cluster.n_nodes)]

    def dur_on(tid: int, node: int) -> float:
        return base_durations[tid] / speeds[node]

    # For priorities, use the fastest node's view of each task.
    max_speed = max(speeds)
    durations = {tid: d / max_speed for tid, d in base_durations.items()}
    # Dependencies restricted to tasks present in the trace.
    deps = {r.task_id: tuple(d for d in r.deps if d in ids) for r in records}
    children: dict[int, list[int]] = {r.task_id: [] for r in records}
    for r in records:
        for d in deps[r.task_id]:
            children[d].append(r.task_id)

    # Bottom level (critical-path priority): duration + max child level.
    bottom: dict[int, float] = {}

    def _bottom(tid: int) -> float:
        # iterative DFS to avoid recursion limits on deep cascades
        stack = [(tid, False)]
        while stack:
            node, processed = stack.pop()
            if node in bottom:
                continue
            if processed:
                kids = children[node]
                bottom[node] = durations[node] + max(
                    (bottom[k] for k in kids), default=0.0
                )
            else:
                stack.append((node, True))
                for k in children[node]:
                    if k not in bottom:
                        stack.append((k, False))
        return bottom[tid]

    for r in records:
        _bottom(r.task_id)

    by_id = {r.task_id: r for r in records}
    remaining = {r.task_id: len(deps[r.task_id]) for r in records}
    # ready heap: (-bottom_level, task_id)
    ready: list[tuple[float, int]] = [
        (-bottom[tid], tid) for tid, n in remaining.items() if n == 0
    ]
    heapq.heapify(ready)

    free_cores = [cluster.node.cores] * cluster.n_nodes
    free_gpus = [cluster.node.gpus] * cluster.n_nodes
    alive = [True] * cluster.n_nodes
    #: per-node running tasks keyed by event seq, as
    #: (task_id, cores, gpus, t_start, t_end) — consulted both for the
    #: deferral decision and to know what a node failure kills.
    running: list[dict[int, tuple[int, int, int, float, float]]] = [
        {} for _ in range(cluster.n_nodes)
    ]
    finish_time: dict[int, float] = {}
    location: dict[int, int] = {}
    placements: dict[int, Placement] = {}
    failed_placements: list[Placement] = []
    checkpoint_writes: list[CheckpointWrite] = []
    placed_count = 0
    # Event heap: (time, kind_rank, seq, payload).  Ranks order
    # same-instant events deterministically: completions (0) beat
    # failures (1) beat revivals (2) — a task ending exactly when its
    # node dies is counted as finished.
    _DONE, _FAIL, _REVIVE = 0, 1, 2
    events: list[tuple[float, int, int, object]] = []
    event_seq = 0
    #: seqs of completion events voided by a node failure.
    killed: set[int] = set()
    now = 0.0
    rr_counter = 0

    def push_event(t: float, kind: int, payload: object) -> int:
        nonlocal event_seq
        event_seq += 1
        heapq.heappush(events, (t, kind, event_seq, payload))
        return event_seq

    for f in failures:
        push_event(f.at, _FAIL, f)

    def earliest_hosting(node: int, c: int, g: int) -> float:
        """Earliest time *node* could have c cores and g GPUs free."""
        if not alive[node]:
            return float("inf")
        if free_cores[node] >= c and free_gpus[node] >= g:
            return now
        fc, fg = free_cores[node], free_gpus[node]
        for _tid, cc, gg, _t0, t_end in sorted(
            running[node].values(), key=lambda r: r[4]
        ):
            fc += cc
            fg += gg
            if fc >= c and fg >= g:
                return t_end
        return float("inf")

    def data_ready(tid: int, node: int) -> float:
        t = 0.0
        rec = by_id[tid]
        for d in deps[tid]:
            t_avail = finish_time[d]
            if location[d] != node:
                # charge the producer's output volume across the wire
                t_avail += cluster.transfer_time(by_id[d].out_bytes)
            t = max(t, t_avail)
        return max(t, 0.0) if deps[tid] else 0.0

    while ready or events:
        # Try to place every currently ready task.
        progressed = False
        still_ready: list[tuple[float, int]] = []
        while ready:
            prio, tid = heapq.heappop(ready)
            rec = by_id[tid]
            c, g = cores_of(rec), gpus_of(rec)
            best_node, best_start = -1, float("inf")
            best_finish = float("inf")
            if policy == "round_robin":
                order = [
                    (rr_counter + i) % cluster.n_nodes
                    for i in range(cluster.n_nodes)
                ]
                for node in order:
                    if alive[node] and free_cores[node] >= c and free_gpus[node] >= g:
                        best_node = node
                        best_start = max(now, data_ready(tid, node))
                        rr_counter += 1
                        break
            else:
                for node in range(cluster.n_nodes):
                    if alive[node] and free_cores[node] >= c and free_gpus[node] >= g:
                        start = max(now, data_ready(tid, node))
                        finish = start + dur_on(tid, node)
                        if finish < best_finish:
                            best_finish, best_start, best_node = finish, start, node
                if best_node >= 0:
                    # Deferral: if some busy node would let the task
                    # *finish* strictly earlier (typically its data's
                    # home node, or a faster node), wait for it instead
                    # of starting suboptimally now.
                    best_busy = min(
                        (
                            max(earliest_hosting(n, c, g), data_ready(tid, n))
                            + dur_on(tid, n)
                            for n in range(cluster.n_nodes)
                        ),
                        default=float("inf"),
                    )
                    if best_busy < best_finish - 1e-12:
                        still_ready.append((prio, tid))
                        continue
            if best_node < 0:
                still_ready.append((prio, tid))
                continue
            ck_cost = 0.0
            if checkpoint is not None:
                placed_count += 1
                if placed_count % checkpoint.every == 0:
                    ck_cost = checkpoint.write_cost
            t_end = best_start + dur_on(tid, best_node) + ck_cost
            free_cores[best_node] -= c
            free_gpus[best_node] -= g
            seq = push_event(t_end, _DONE, (tid, best_node, c, g, ck_cost))
            running[best_node][seq] = (tid, c, g, best_start, t_end)
            placements[tid] = Placement(
                task_id=tid,
                name=rec.name,
                node=best_node,
                t_start=best_start,
                t_end=t_end,
                cores=c,
                gpus=g,
            )
            progressed = True
        for item in still_ready:
            heapq.heappush(ready, item)

        if not events:
            if ready and not progressed:
                if not any(alive):
                    raise DeadClusterError(
                        "tasks remain but every node is down permanently"
                    )
                raise OversubscribedTaskError(
                    "ready tasks cannot be placed and no task is running"
                )
            continue

        # Advance to the next event.
        t_event, kind, seq, payload = heapq.heappop(events)

        if kind == _DONE:
            if seq in killed:
                # Voided by a node failure: the task never finished, so
                # the clock does not advance to its planned end time.
                killed.discard(seq)
                continue
            tid, node, c, g, ck_cost = payload
            now = max(now, t_event)
            free_cores[node] += c
            free_gpus[node] += g
            del running[node][seq]
            finish_time[tid] = t_event
            location[tid] = node
            if ck_cost > 0:
                # a task killed mid-flight never reaches this branch, so
                # only completed writes are recorded
                checkpoint_writes.append(
                    CheckpointWrite(tid, node, t_event - ck_cost, t_event)
                )
            for child in children[tid]:
                remaining[child] -= 1
                if remaining[child] == 0:
                    heapq.heappush(ready, (-bottom[child], child))

        elif kind == _FAIL:
            failure: NodeFailure = payload
            now = max(now, t_event)
            node = failure.node
            if alive[node]:
                alive[node] = False
                free_cores[node] = 0
                free_gpus[node] = 0
                # Kill every in-flight task: record the truncated
                # attempt as lost work and resubmit the task.
                for run_seq, (tid, c, g, t0, _planned_end) in sorted(
                    running[node].items()
                ):
                    killed.add(run_seq)
                    failed_placements.append(
                        Placement(
                            task_id=tid,
                            name=by_id[tid].name,
                            node=node,
                            t_start=t0,
                            # a task placed to start later (waiting on a
                            # transfer) dies with zero work performed
                            t_end=max(t0, t_event),
                            cores=c,
                            gpus=g,
                        )
                    )
                    placements.pop(tid, None)
                    heapq.heappush(ready, (-bottom[tid], tid))
                running[node].clear()
                if failure.down_for is not None:
                    push_event(t_event + failure.down_for, _REVIVE, node)

        else:  # _REVIVE
            node = payload
            now = max(now, t_event)
            if not alive[node]:
                alive[node] = True
                free_cores[node] = cluster.node.cores
                free_gpus[node] = cluster.node.gpus

    makespan = max((p.t_end for p in placements.values()), default=0.0)
    return SimResult(
        cluster,
        placements,
        makespan,
        failed_placements=failed_placements,
        node_failures=failures,
        checkpoint_writes=checkpoint_writes,
        checkpoint_spec=checkpoint,
    )


def flatten_nested(trace: Trace) -> Trace:
    """Lift nested tasks to a flat DAG for simulation.

    Parent tasks that spawned children are removed; their children
    inherit the parent's dependencies, and tasks that depended on the
    parent now depend on all of the parent's (transitively flattened)
    children.  The parent's own (orchestration) time is dropped — an
    approximation documented in DESIGN.md that errs towards optimism
    for *both* nested and non-nested variants equally.
    """
    records = list(trace)
    has_children = {r.parent_id for r in records if r.parent_id is not None}
    leaf_of: dict[int, list[int]] = {}

    def leaves(tid: int) -> list[int]:
        if tid not in has_children:
            return [tid]
        if tid in leaf_of:
            return leaf_of[tid]
        out: list[int] = []
        for r in records:
            if r.parent_id == tid:
                out.extend(leaves(r.task_id))
        leaf_of[tid] = out
        return out

    parent_deps: dict[int, tuple[int, ...]] = {
        r.task_id: r.deps for r in records
    }
    flat = Trace()
    for r in records:
        if r.task_id in has_children:
            continue  # drop parents
        new_deps: set[int] = set()
        frontier: Iterable[int] = r.deps
        if r.parent_id is not None:
            frontier = tuple(r.deps) + parent_deps.get(r.parent_id, ())
        for d in frontier:
            for leaf in leaves(d):
                if leaf != r.task_id:
                    new_deps.add(leaf)
        flat.add(dataclasses.replace(r, deps=tuple(sorted(new_deps)), parent_id=None))
    return flat
