"""Scheduler hot-path microbenchmarks.

Not a paper figure — the perf trajectory of the runtime itself.  The
paper's scalability claims (Figs. 11a-c) assume per-task runtime
overhead is small relative to task work; these benchmarks pin down
that overhead for the local executors and fail loudly if the
scheduling hot path regresses:

* **submit latency** — cost of one task submission (dependency
  detection + enqueue), with the pool draining concurrently;
* **many-small-tasks throughput** — end-to-end tasks/second for a
  flood of no-op tasks, the fine-grained-task regime the event-driven
  scheduler is built for;
* **dependency-chain latency** — per-edge cost when every task gates
  the next (scheduler wake-up path, no parallelism to hide it);
* **wakeup discipline** — scheduler counters of the same runs:
  parked-thread wakeups must scale with completions, never with time
  (the no-poll invariant).

Results are written to ``BENCH_scheduler.json`` at the repository root
so successive PRs can compare runs (see CHANGES.md for the history).
"""

from __future__ import annotations

import json
import pathlib
import statistics
import time

import pytest

from repro.runtime import Runtime, task, wait_on
from repro.runtime.config import RuntimeConfig

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_FILE = REPO_ROOT / "BENCH_scheduler.json"

N_FLOOD = 2000
N_CHAIN = 400
REPEATS = 5
# Discarded warm-up iterations before the timed repeats.  The first
# run or two of each shape pays one-time costs (bytecode warm-up,
# allocator growth, thread-pool spin-up) that showed up as 69/148 µs
# outliers against a 44-48 µs steady state and distorted medians.
WARMUP = 2

_metrics: dict[str, dict] = {}


@pytest.fixture(scope="session", autouse=True)
def _write_bench_file():
    """Persist every metric recorded this session to BENCH_scheduler.json."""
    yield
    if not _metrics:
        return
    from repro.runtime import atomic_write

    payload = {
        "bench": "scheduler_hot_path",
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "params": {
            "n_flood": N_FLOOD,
            "n_chain": N_CHAIN,
            "repeats": REPEATS,
            "warmup_discarded": WARMUP,
        },
        "metrics": _metrics,
    }
    atomic_write(BENCH_FILE, json.dumps(payload, indent=2, sort_keys=True) + "\n")


@task(returns=1)
def _noop(x):
    return x


def _timed(fn, repeats: int = REPEATS, warmup: int = WARMUP) -> list[float]:
    """Time *repeats* runs of *fn*, discarding *warmup* runs first."""
    samples = []
    for i in range(warmup + repeats):
        t0 = time.perf_counter()
        fn()
        if i >= warmup:
            samples.append(time.perf_counter() - t0)
    return samples


def _record(name: str, **fields) -> None:
    fields.setdefault("warmup_discarded", WARMUP)
    _metrics[name] = fields


def test_submit_latency_threads():
    """Per-submission cost under the threads executor, pool draining
    concurrently with the submitting thread."""
    per_submit_us = []
    for i in range(WARMUP + REPEATS):
        with Runtime(executor="threads", max_workers=4):
            t0 = time.perf_counter()
            futs = [_noop(i) for i in range(N_FLOOD)]
            t1 = time.perf_counter()
            out = wait_on(futs)
        assert out == list(range(N_FLOOD))
        if i >= WARMUP:
            per_submit_us.append((t1 - t0) / N_FLOOD * 1e6)
    _record(
        "submit_latency_threads",
        unit="us/task",
        median=statistics.median(per_submit_us),
        min=min(per_submit_us),
        samples=per_submit_us,
    )


def test_many_small_tasks_throughput():
    """End-to-end submit+schedule+drain throughput for a flood of
    no-op tasks — the fine-grained-task regime."""
    stats = {}

    def run():
        with Runtime(executor="threads", max_workers=4) as rt:
            out = wait_on([_noop(i) for i in range(N_FLOOD)])
            stats.update(rt.stats())
        assert len(out) == N_FLOOD

    samples = _timed(run)
    best = min(samples)
    sched = stats.get("scheduler", {})
    _record(
        "many_small_tasks",
        unit="tasks/s",
        tasks_per_s=N_FLOOD / best,
        wall_s=best,
        idle_wakeups=stats.get("idle_wakeups"),
        worker_parks=sched.get("worker_parks"),
        samples=[N_FLOOD / s for s in samples],
    )
    # The no-poll invariant: wakeups are caused by events (completions,
    # enqueues), never by timers, so they are bounded by task count and
    # can never scale with wall-clock time.
    assert stats.get("idle_wakeups", 0) <= N_FLOOD


def test_submit_latency_sequential():
    """Per-task cost of the sequential executor (submission == run)."""
    per_task_us = []
    for i in range(WARMUP + REPEATS):
        with Runtime(executor="sequential"):
            t0 = time.perf_counter()
            out = wait_on([_noop(i) for i in range(N_FLOOD)])
            dt = time.perf_counter() - t0
        assert len(out) == N_FLOOD
        if i >= WARMUP:
            per_task_us.append(dt / N_FLOOD * 1e6)
    _record(
        "submit_latency_sequential",
        unit="us/task",
        median=statistics.median(per_task_us),
        min=min(per_task_us),
        samples=per_task_us,
    )


def test_fused_flood_throughput():
    """What task fusion is worth on the shape built for it: 250 chains
    of 8 no-op tasks submitted as ``submit_many`` stages (a map-map),
    run with ``fusion=False`` and ``fusion=True`` in this session.  Both
    sides use the same batch intake, so ``speedup_vs_unfused`` credits
    fusion with fusion only — the ready-queue round trip and worker
    wake-up per interior edge — and is recorded with both walls in
    BENCH_scheduler.json rather than asserted: with 4 workers on a
    2-core box it has read anywhere from 1.0x to 2.4x between
    repetitions (table in ``docs/architecture.md``, *Task fusion*).
    The asserts are the ones that repeat exactly: every task fused,
    one unit per chain, values right.
    """
    width = 250
    depth = N_FLOOD // width

    def measure(fusion: bool):
        stats = {}

        def run():
            cfg = RuntimeConfig(executor="threads", max_workers=4, fusion=fusion)
            with Runtime(config=cfg) as rt:
                futs = rt.submit_many([_noop.defer(i) for i in range(width)])
                for _ in range(depth - 1):
                    futs = rt.submit_many([_noop.defer(f) for f in futs])
                out = wait_on(futs)
                stats.update(rt.stats())
            assert out == list(range(width))

        samples = _timed(run)
        return samples, stats.get("scheduler", {})

    unfused_samples, _ = measure(fusion=False)
    samples, sched = measure(fusion=True)
    best, unfused_best = min(samples), min(unfused_samples)
    _record(
        "fused_flood",
        unit="tasks/s",
        tasks_per_s=N_FLOOD / best,
        wall_s=best,
        unfused_wall_s=unfused_best,
        speedup_vs_unfused=unfused_best / best,
        fused_units=sched.get("fused_units"),
        fused_tasks=sched.get("fused_tasks"),
        worker_parks=sched.get("worker_parks"),
        samples=[N_FLOOD / s for s in samples],
        unfused_samples=[N_FLOOD / s for s in unfused_samples],
    )
    assert sched.get("fused_tasks", 0) == N_FLOOD, sched
    assert sched.get("fused_units", 0) == width, sched


def test_dependency_chain_latency():
    """Per-edge scheduling latency: a serial chain leaves no
    parallelism, so the wake-up path *is* the cost."""
    per_edge_us = []
    for i in range(WARMUP + REPEATS):
        with Runtime(executor="threads", max_workers=2):
            t0 = time.perf_counter()
            f = _noop(0)
            for _ in range(N_CHAIN):
                f = _noop(f)
            assert wait_on(f) == 0
            dt = time.perf_counter() - t0
        if i >= WARMUP:
            per_edge_us.append(dt / N_CHAIN * 1e6)
    _record(
        "dependency_chain",
        unit="us/edge",
        median=statistics.median(per_edge_us),
        min=min(per_edge_us),
        samples=per_edge_us,
    )
