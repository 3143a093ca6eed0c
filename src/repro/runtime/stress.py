"""Deterministic concurrency stress harness for the event-driven
scheduler.

Each *seed* expands into a randomized-but-reproducible schedule of
submissions, barging waiters, nested scopes, INOUT write chains,
retries with live backoff timers, and — depending on the seed's mode —
an abort (``on_failure="FAIL"``), a workflow kill
(:class:`WorkflowKilledError` *or* a raw ``KeyboardInterrupt`` escaping
a task body), or a shutdown race.  A run fails on any of:

* **hangs** — a watchdog thread bounds every seed's wall clock; on
  expiry the stacks of all live threads are dumped (the classic
  signature of a lost wakeup is every thread parked in
  ``Condition.wait``);
* **lost wakeups / wrong values** — every future's value is checked
  against a reference interpretation of the same schedule;
* **negative scope counts / illegal state transitions** — the runtime
  runs with ``debug_invariants=True`` and any recorded violation fails
  the seed;
* **structural leaks** — after a clean drain the runtime must be
  quiesced: empty ready queue, zero unfinished, every task terminal
  (``Runtime.check_invariants(quiesced=True)``).

``--store`` mixes shared-memory data-plane traffic into every seed:
ndarray tasks whose blocks travel through the object store (some via
``Runtime.put``, some stored automatically by the process backend),
verified bit-exactly against a reference interpretation, with
store/trace byte accounting reconciled after every cleanly-drained
seed (:func:`~repro.runtime.observability.reconcile_store`).

Run it via ``python -m repro stress`` or ``make stress``.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import itertools
import random
import sys
import threading
import time
import traceback
from typing import Any

import numpy as np

from repro.runtime.backends import current_attempt
from repro.runtime.config import RuntimeConfig
from repro.runtime.directions import INOUT
from repro.runtime.engine import Runtime, pop_runtime, push_runtime
from repro.runtime.exceptions import (
    CancelledTaskError,
    RuntimeStateError,
    TaskExecutionError,
    WorkflowAbortedError,
    WorkflowKilledError,
)
from repro.runtime.task import task

#: seed % 4 selects the scenario family.
MODES = ("mixed", "abort", "kill", "shutdown")

#: Distinguishes flaky-task submissions across runs in one process.
_RUN_IDS = itertools.count()


# ----------------------------------------------------------------------
# task vocabulary
# ----------------------------------------------------------------------
@task(returns=1)
def _add(a, b):
    return a + b


@task(returns=1, on_failure="RETRY", max_retries=3)
def _flaky_add(a, b, key=None, failures=0):
    """Fails its first *failures* attempts, then behaves like ``_add``.

    Exercises the resubmission path (fresh DAG node, backoff timer,
    future hand-over) under concurrency.  Flakiness is keyed on
    :func:`~repro.runtime.backends.current_attempt`, which is valid on
    the coordinator *and* inside backend worker processes — a shared
    seen-counter would not survive the process boundary (*key* only
    keeps distinct submissions from sharing a checkpoint signature)."""
    attempt = current_attempt()
    if attempt < failures:
        raise RuntimeError(f"injected flake {key} (attempt {attempt})")
    return a + b


@task(returns=1)
def _nested_sum(values):
    """Submits one child task per element and synchronises inside the
    task body — the paper's nesting pattern, and the scheduler's
    help-while-waiting path under load."""
    from repro.runtime import wait_on

    futs = [_add(v, 1) for v in values]
    return sum(wait_on(futs))


@task(box=INOUT)
def _bump(box, by):
    box.value += by


@task(returns=1)
def _scale(block, k):
    """Exact ndarray op for the store mode: integer-valued float blocks
    times integer scalars stay bit-exact, so results can be compared
    with ``np.array_equal`` across process boundaries."""
    return block * k


@task(returns=1)
def _block_sum(a, b):
    return a + b


@task(returns=1)
def _boom(kind):
    if kind == "kill":
        raise WorkflowKilledError("stress-injected kill")
    if kind == "interrupt":
        raise KeyboardInterrupt("stress-injected interrupt")
    raise ValueError("stress-injected failure")


_boom_abort = _boom.opts(on_failure="FAIL")


class _Box:
    """Mutable INOUT target; the runtime orders writers by identity."""

    def __init__(self) -> None:
        self.value = 0


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------
@dataclasses.dataclass
class StressReport:
    seed: int
    mode: str
    ok: bool
    n_tasks: int
    duration: float
    problems: list[str] = dataclasses.field(default_factory=list)

    def line(self) -> str:
        status = "ok" if self.ok else "FAIL"
        head = (
            f"seed {self.seed:>4}  mode={self.mode:<8} "
            f"tasks={self.n_tasks:>4}  {self.duration * 1000:7.1f}ms  {status}"
        )
        if self.problems:
            head += "".join(f"\n    - {p}" for p in self.problems)
        return head


def _dump_stacks() -> str:
    lines = []
    for tid, frame in sys._current_frames().items():
        name = next(
            (t.name for t in threading.enumerate() if t.ident == tid), str(tid)
        )
        lines.append(f"--- thread {name} ---")
        lines.append("".join(traceback.format_stack(frame)))
    return "\n".join(lines)


def run_under_watchdog(fn, timeout: float, label: str) -> dict[str, Any]:
    """Run ``fn()`` on a daemon thread bounded by *timeout* seconds.

    Returns an outcome dict: ``ok`` and ``duration`` always; ``value``
    on success; ``error``/``trace`` when *fn* raised; ``problems``
    (human-readable lines, including a full stack dump of every live
    thread on a hang) whenever ``ok`` is false.  On timeout the thread
    is abandoned, not killed — the point is that the *suite* keeps
    moving and reports the hang instead of wedging.

    Shared by the stress suite's per-seed watchdog and the service
    chaos harness (:mod:`repro.service.chaos`): anything driving
    scheduler-level scenarios in CI needs the same guarantee that a
    lost wakeup shows up as a failure with stacks, not a hung job.
    """
    outcome: dict[str, Any] = {}

    def target() -> None:
        try:
            outcome["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - relayed to the outcome
            outcome["error"] = exc
            outcome["trace"] = traceback.format_exc()

    thread = threading.Thread(target=target, name=label, daemon=True)
    t0 = time.perf_counter()
    thread.start()
    thread.join(timeout)
    duration = time.perf_counter() - t0
    if thread.is_alive():
        # Watchdog trip: dump every live flight recorder — the
        # lifecycle rows leading into the hang are exactly what the
        # black box exists for.  Best effort; the stack dump is the primary
        # artifact when no recorder is attached.
        from repro.runtime import flightrec

        dumps = flightrec.dump_all(f"watchdog: {label}")
        problems = [
            f"HANG: {label} did not finish within {timeout}s",
            _dump_stacks(),
        ]
        if dumps:
            problems.append("flight recorder dumps: " + ", ".join(dumps))
        return {
            "ok": False,
            "duration": duration,
            "problems": problems,
            "flightrec_dumps": dumps,
        }
    if "error" in outcome:
        return {
            "ok": False,
            "duration": duration,
            "error": outcome["error"],
            "trace": outcome.get("trace", ""),
            "problems": [
                f"{label} raised {outcome['error']!r}",
                outcome.get("trace", ""),
            ],
        }
    return {"ok": True, "duration": duration, "value": outcome.get("value")}


# ----------------------------------------------------------------------
# scenario
# ----------------------------------------------------------------------
def _run_scenario(
    seed: int,
    n_ops: int,
    workers: int,
    backend: str = "threads",
    observability: str = "",
    store: bool = False,
    fusion: bool = False,
) -> StressReport:
    t0 = time.perf_counter()
    rng = random.Random(seed)
    mode = MODES[seed % len(MODES)]
    run_id = next(_RUN_IDS)
    problems: list[str] = []

    cfg = RuntimeConfig(
        executor="threads",
        backend=backend,
        max_workers=workers,
        name=f"stress-{seed}",
        debug_invariants=True,
        fusion=fusion,
        retry_backoff=0.0005,
        retry_backoff_cap=0.002,
        # The store reconciliation needs the trace's byte totals.
        collect_trace=store,
        observability=observability,
        store_threshold_bytes=4096 if store else 65536,
    )
    rt = Runtime(config=cfg)
    push_runtime(rt)

    #: (future, expected value) for every verifiable submission.
    tracked: list[tuple[Any, int]] = []
    #: (future/ref, expected ndarray) for store-mode array submissions.
    tracked_arrays: list[tuple[Any, np.ndarray]] = []
    tracked_lock = threading.Lock()
    box = _Box()
    box_expected = 0
    clean_drain = False

    def pick_operand() -> tuple[Any, int]:
        """An int literal or an earlier future, with its expected value."""
        with tracked_lock:
            if tracked and rng.random() < 0.5:
                return tracked[rng.randrange(len(tracked))]
        value = rng.randint(-50, 50)
        return value, value

    def submit_array_op() -> None:
        """Store-mode traffic: integer-valued float blocks (bit-exact
        under scaling/addition) flowing through the shared-memory data
        plane — some pre-seeded with ``Runtime.put``, some stored
        automatically by the backend when dispatched."""
        with tracked_lock:
            reuse = tracked_arrays and rng.random() < 0.5
            if reuse:
                a, av = tracked_arrays[rng.randrange(len(tracked_arrays))]
        if not reuse:
            av = np.full((32, 32), float(rng.randint(-9, 9)))
            a = rt.put(av) if rng.random() < 0.5 else av
        roll = rng.random()
        if roll < 0.5:
            k = rng.randint(2, 5)
            fut, expected = _scale(a, k), av * k
        else:
            bv = np.full((32, 32), float(rng.randint(-9, 9)))
            fut, expected = _block_sum(a, bv), av + bv
        with tracked_lock:
            tracked_arrays.append((fut, expected))

    def submit_one(i: int) -> None:
        nonlocal box_expected
        if store and rng.random() < 0.30:
            submit_array_op()
            return
        roll = rng.random()
        if roll < 0.45:
            (a, av), (b, bv) = pick_operand(), pick_operand()
            if rng.random() < 0.25:
                fut = _add.opts(priority=rng.randint(-5, 5))(a, b)
            else:
                fut = _add(a, b)
            with tracked_lock:
                tracked.append((fut, av + bv))
        elif roll < 0.60:
            (a, av), (b, bv) = pick_operand(), pick_operand()
            fut = _flaky_add(
                a, b, key=(run_id, i), failures=rng.randint(1, 2)
            )
            with tracked_lock:
                tracked.append((fut, av + bv))
        elif roll < 0.72:
            values = [rng.randint(-20, 20) for _ in range(rng.randint(2, 5))]
            fut = _nested_sum(values)
            with tracked_lock:
                tracked.append((fut, sum(values) + len(values)))
        elif roll < 0.85:
            by = rng.randint(1, 9)
            _bump(box, by)
            box_expected += by
        else:
            # Barging waiter on the submitting thread: synchronise a
            # random earlier future mid-stream and check it now.
            with tracked_lock:
                if not tracked:
                    return
                fut, expected = tracked[rng.randrange(len(tracked))]
            got = rt.wait_on(fut)
            if got != expected:
                problems.append(
                    f"mid-stream wait_on returned {got!r}, expected {expected!r}"
                )

    def verify_values() -> None:
        with tracked_lock:
            snapshot = list(tracked)
        for fut, expected in snapshot:
            got = rt.wait_on(fut)
            if got != expected:
                problems.append(
                    f"future of task {fut.task_id} resolved to {got!r}, "
                    f"expected {expected!r}"
                )
        if box.value != box_expected:
            problems.append(
                f"INOUT box ended at {box.value}, expected {box_expected}"
            )

    def verify_arrays() -> None:
        """Check store-mode array results bit-exactly.  Must run before
        ``rt.shutdown`` — shutdown tears the shared-memory store down,
        after which outstanding refs are deliberately dead."""
        with tracked_lock:
            snapshot = list(tracked_arrays)
        for fut, expected in snapshot:
            got = rt.get(fut)
            if not (isinstance(got, np.ndarray) and np.array_equal(got, expected)):
                problems.append(
                    f"store-mode array result diverged: got {got!r:.80}, "
                    f"expected fill {expected.flat[0]!r}"
                )

    def barging_waiters(n: int) -> list[threading.Thread]:
        """Concurrent threads synchronising random futures while the
        pool is still churning — the waiter/worker race.  Each thread's
        sub-seed is drawn on the submitting thread, so the schedule
        stays a pure function of the seed."""

        def wait_some(sub_seed: int) -> None:
            local = random.Random(sub_seed)
            for _ in range(10):
                with tracked_lock:
                    if not tracked:
                        return
                    fut, expected = tracked[local.randrange(len(tracked))]
                try:
                    got = rt.wait_on(fut)
                except (WorkflowAbortedError, WorkflowKilledError,
                        CancelledTaskError, TaskExecutionError,
                        RuntimeStateError, KeyboardInterrupt):
                    return  # expected under abort/kill/shutdown seeds
                if got != expected:
                    problems.append(
                        f"barging waiter saw {got!r} for task {fut.task_id}, "
                        f"expected {expected!r}"
                    )

        threads = [
            threading.Thread(
                target=wait_some,
                args=(rng.randint(0, 2**31),),
                name=f"stress-waiter-{j}",
                daemon=True,
            )
            for j in range(n)
        ]
        for t in threads:
            t.start()
        return threads

    try:
        if mode == "mixed":
            waiters = barging_waiters(2)
            for i in range(n_ops):
                submit_one(i)
            for t in waiters:
                t.join()
            rt.barrier()
            verify_values()
            verify_arrays()
            clean_drain = True

        elif mode == "abort":
            # Retries with live backoff timers racing the abort.
            for i in range(n_ops // 2):
                submit_one(i)
            waiters = barging_waiters(2)
            _boom_abort("fail")
            try:
                for i in range(n_ops // 2, n_ops):
                    submit_one(i)
            except (WorkflowAbortedError, CancelledTaskError, TaskExecutionError):
                pass  # submissions/waits racing the abort may observe it
            try:
                rt.barrier()
                problems.append("abort seed: barrier() did not raise")
            except WorkflowAbortedError:
                pass
            for t in waiters:
                t.join()
            rt.shutdown(wait=True)
            clean_drain = True

        elif mode == "kill":
            kind = "kill" if rng.random() < 0.5 else "interrupt"
            for i in range(n_ops // 2):
                submit_one(i)
            waiters = barging_waiters(2)
            _boom(kind)
            try:
                rt.barrier()
                problems.append(f"kill seed ({kind}): barrier() did not raise")
            except (WorkflowKilledError, KeyboardInterrupt):
                pass
            for t in waiters:
                t.join()
            rt.shutdown(wait=False)

        else:  # shutdown
            waiters = barging_waiters(2)
            for i in range(n_ops):
                submit_one(i)
            for t in waiters:
                t.join()
            if store:
                # Array refs die with the store at shutdown; check them
                # first (plain values below still survive shutdown).
                rt.barrier()
                verify_arrays()
            rt.shutdown(wait=True)
            verify_values()
            try:
                _add(1, 1)
                problems.append("submit after shutdown did not raise")
            except RuntimeStateError:
                pass
            clean_drain = True
    finally:
        pop_runtime(rt)

    problems.extend(rt.check_invariants(quiesced=clean_drain))
    stats = rt.stats()
    if clean_drain and stats["ready_queue"]:
        problems.append(f"ready queue not drained: {stats['ready_queue']}")
    if clean_drain and store and backend == "processes":
        # Data-plane byte accounting must agree between the backend
        # counters and the per-task trace records on a clean drain.
        from repro.runtime.observability import reconcile_store

        problems.extend(reconcile_store(rt))
    if mode in ("mixed", "shutdown"):
        rt.shutdown(wait=False)

    return StressReport(
        seed=seed,
        mode=mode,
        ok=not problems,
        n_tasks=stats["n_tasks"],
        duration=time.perf_counter() - t0,
        problems=problems,
    )


# ----------------------------------------------------------------------
# fusion differential
# ----------------------------------------------------------------------
def _run_fusion_workload(
    seed: int, n_ops: int, workers: int, fusion: bool
) -> tuple[list[Any], dict, collections.Counter]:
    """One deterministic pure-task DAG, built stage by stage from the
    seed.  Every stage goes through ``submit_many`` so the fusion pass
    sees whole map stages and chains; all tasks are pure and the RNG
    never observes execution results, so two runs of the same seed
    must produce bit-identical values regardless of scheduling.
    Returns the values, ``stats()`` and the multiset of per-task
    ``(name, attempt, status, parent_id, label, len(deps))`` from the
    trace — everything a record says that scheduling may not change."""
    from repro.runtime import wait_on

    rng = random.Random(seed)
    width = 8
    cfg = RuntimeConfig(
        executor="threads",
        max_workers=workers,
        name=f"fusediff-{seed}-{'on' if fusion else 'off'}",
        debug_invariants=True,
        fusion=fusion,
        collect_trace=True,
    )
    rt = Runtime(config=cfg)
    push_runtime(rt)
    try:
        stage = rt.submit_many(
            [_add.defer(rng.randint(-50, 50), i) for i in range(width)]
        )
        all_futs = list(stage)
        # Three unconditional map stages first: each extends every open
        # unit, so the fusion-on run is *guaranteed* at least 8 units of
        # 4 members regardless of the random op sequence (later stages
        # fuse only opportunistically — whether a flushed chain re-opens
        # depends on whether its parent already ran, a benign race).
        for _ in range(3):
            stage = rt.submit_many([_add.defer(f, rng.randint(-5, 5)) for f in stage])
            all_futs.extend(stage)
        for _ in range(max(1, n_ops // width)):
            op = rng.random()
            if op < 0.5:
                # map stage: element-wise successor of the last stage
                stage = rt.submit_many(
                    [_add.defer(f, rng.randint(-5, 5)) for f in stage]
                )
            elif op < 0.8:
                # fan-out: a fresh stage chained off one prior element
                root = stage[rng.randrange(len(stage))]
                stage = rt.submit_many([_add.defer(root, k) for k in range(width)])
            else:
                # mirror-pair stage: each element consumes two parents,
                # which breaks chain fusion and exercises the demotion
                # of buffered units back onto the ready queue
                stage = rt.submit_many(
                    [
                        _add.defer(stage[i], stage[-1 - i])
                        for i in range(len(stage))
                    ]
                )
            all_futs.extend(stage)
        values = wait_on(all_futs)
        rt.shutdown(wait=True)
        stats = rt.stats()
        records = collections.Counter(
            (r.name, r.attempt, r.status, r.parent_id, r.label, len(r.deps))
            for r in rt.trace()
        )
        problems = rt.check_invariants(quiesced=True)
        if problems:
            raise AssertionError(f"invariant violations: {problems}")
    finally:
        pop_runtime(rt)
    return values, stats, records


def run_differential(
    seed: int, n_ops: int = 240, workers: int = 4, timeout: float = 60.0
) -> StressReport:
    """Fusion bit-identity differential: run the same seeded DAG with
    fusion off and on and require every future's value to match
    bit-for-bit, the same task count, the same multiset of per-task
    trace records (one execution path: a fused member is recorded
    exactly as the plain task it would have been), and that the fused
    run actually fused something (a silently-disabled optimizer would
    pass any equivalence check)."""
    t0 = time.perf_counter()

    def body() -> list[str]:
        base_vals, base_stats, base_recs = _run_fusion_workload(seed, n_ops, workers, False)
        fused_vals, fused_stats, fused_recs = _run_fusion_workload(seed, n_ops, workers, True)
        problems: list[str] = []
        if base_vals != fused_vals:
            diffs = [
                i for i, (a, b) in enumerate(zip(base_vals, fused_vals)) if a != b
            ]
            problems.append(
                f"fusion changed {len(diffs)} value(s), first at index {diffs[0]}: "
                f"{base_vals[diffs[0]]!r} != {fused_vals[diffs[0]]!r}"
            )
        if base_stats["n_tasks"] != fused_stats["n_tasks"]:
            problems.append(
                "task count diverged: "
                f"{base_stats['n_tasks']} unfused vs {fused_stats['n_tasks']} fused"
            )
        if base_recs != fused_recs:
            problems.append(
                "trace records (name, attempt, status, parent_id, label, n_deps) "
                f"diverged: only unfused {dict(base_recs - fused_recs)}, "
                f"only fused {dict(fused_recs - base_recs)}"
            )
        if base_stats["scheduler"].get("fused_tasks", 0):
            problems.append(
                f"fusion-off run fused {base_stats['scheduler']['fused_tasks']} tasks"
            )
        if not fused_stats["scheduler"].get("fused_tasks", 0):
            problems.append("fusion-on run never fused a task")
        return problems

    outcome = run_under_watchdog(body, timeout, f"fusediff-seed-{seed}")
    problems = outcome["problems"] if not outcome["ok"] else outcome["value"]
    return StressReport(
        seed=seed,
        mode="fusediff",
        ok=not problems,
        n_tasks=0,
        duration=time.perf_counter() - t0,
        problems=problems,
    )


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def run_seed(
    seed: int,
    n_ops: int = 120,
    workers: int = 4,
    timeout: float = 60.0,
    backend: str = "threads",
    observability: str = "",
    store: bool = False,
    fusion: bool = False,
) -> StressReport:
    """Run one seed under a hang watchdog.

    The scenario runs on a daemon thread; if it does not finish within
    *timeout* seconds the seed fails with a full stack dump of every
    live thread — a scheduler hang (lost wakeup, stuck shutdown) shows
    up here instead of wedging the suite."""
    outcome = run_under_watchdog(
        lambda: _run_scenario(
            seed, n_ops, workers, backend, observability, store, fusion
        ),
        timeout,
        f"stress-seed-{seed}",
    )
    if not outcome["ok"]:
        return StressReport(
            seed=seed,
            mode=MODES[seed % len(MODES)],
            ok=False,
            n_tasks=0,
            duration=outcome["duration"],
            problems=outcome["problems"],
        )
    return outcome["value"]


def run_suite(
    seeds,
    n_ops: int = 120,
    workers: int = 4,
    timeout: float = 60.0,
    verbose: bool = True,
    backend: str = "threads",
    observability: str = "",
    store: bool = False,
    fusion: bool = False,
) -> list[StressReport]:
    reports = []
    for seed in seeds:
        report = run_seed(
            seed,
            n_ops=n_ops,
            workers=workers,
            timeout=timeout,
            backend=backend,
            observability=observability,
            store=store,
            fusion=fusion,
        )
        reports.append(report)
        if verbose:
            print(report.line(), flush=True)
    return reports


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro stress",
        description="concurrency stress harness for the task scheduler",
    )
    parser.add_argument(
        "--seeds", type=int, default=20, help="run seeds 0..N-1 (default 20)"
    )
    parser.add_argument(
        "--seed",
        type=int,
        action="append",
        default=None,
        help="run specific seed(s) instead (repeatable)",
    )
    parser.add_argument("--ops", type=int, default=120, help="operations per seed")
    parser.add_argument("--workers", type=int, default=4, help="pool size")
    parser.add_argument(
        "--timeout", type=float, default=60.0, help="per-seed hang watchdog (s)"
    )
    parser.add_argument(
        "--backend",
        choices=("threads", "processes"),
        default="threads",
        help="execution backend to stress (default threads)",
    )
    parser.add_argument(
        "--store",
        action="store_true",
        help="mix shared-memory data-plane traffic (ndarray tasks, "
        "Runtime.put) into every seed and reconcile the store byte "
        "accounting on clean drains",
    )
    parser.add_argument(
        "--fuse",
        action="store_true",
        help="run every seed with the task-fusion pass enabled "
        "(fusion=True); the same reference checks apply, so any "
        "fusion-induced divergence fails the seed",
    )
    parser.add_argument(
        "--differential",
        action="store_true",
        help="fusion bit-identity differential: run each seed's "
        "deterministic DAG twice, fusion off and on, and require "
        "bit-identical values and matching task counts",
    )
    args = parser.parse_args(argv)

    seeds = args.seed if args.seed else range(args.seeds)
    if args.differential:
        reports = []
        for seed in seeds:
            report = run_differential(
                seed, n_ops=args.ops, workers=args.workers, timeout=args.timeout
            )
            reports.append(report)
            print(report.line(), flush=True)
        failed = [r for r in reports if not r.ok]
        print(
            f"fusediff: {len(reports) - len(failed)}/{len(reports)} seeds passed",
            flush=True,
        )
        return 1 if failed else 0
    reports = run_suite(
        seeds,
        n_ops=args.ops,
        workers=args.workers,
        timeout=args.timeout,
        backend=args.backend,
        store=args.store,
        fusion=args.fuse,
    )
    failed = [r for r in reports if not r.ok]
    print(
        f"stress: {len(reports) - len(failed)}/{len(reports)} seeds passed",
        flush=True,
    )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
