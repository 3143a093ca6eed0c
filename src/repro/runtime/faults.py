"""Deterministic fault injection — chaos testing for task workflows.

A :class:`FaultInjector` intercepts task executions by name and makes
the Nth execution (or a seeded random fraction of executions) fail or
stall, so resilience claims — "this workflow survives two transient
failures of ``train``" — become executable tests instead of prose::

    from repro.runtime import Runtime, task, wait_on
    from repro.runtime.faults import fail_nth, inject

    with Runtime(executor="sequential"), inject(fail_nth("train", 1, 2)):
        model = train.opts(max_retries=2)(data)   # fails twice, then succeeds
        wait_on(model)

Executions are counted per task *name* across the whole injector
lifetime, attempts included — execution 1 is the first attempt, so
``fail_nth("train", 1, 2)`` makes the runtime's third attempt the
first one to run clean.  Probabilistic rules draw from a per-name
generator seeded from ``(seed, name)``, so a given seed produces the
same failure pattern on every run (per-name execution order is
deterministic under the ``sequential`` executor).

Injectors nest: the innermost ``inject(...)`` context is consulted
first, and every active injector sees every execution.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import threading
import time
from typing import Callable, Iterator

from repro.runtime.exceptions import FaultInjectedError, WorkflowKilledError


@dataclasses.dataclass(frozen=True)
class FaultRule:
    """One injection rule, matched against task names.

    ``task`` is a task name, or ``"*"`` to match every task.
    ``executions`` is a frozen set of 1-based execution indices the
    rule fires on; ``None`` means "consult ``probability`` instead"
    (and a probability of ``None`` then means "every execution").
    ``after`` is the global (all task names pooled) execution count a
    ``"kill"`` rule lets complete before firing.  ``"corrupt"`` rules
    fire on checkpoint *writes* rather than task executions.
    ``"kill_worker"`` rules do not raise: they ask the execution
    backend to crash the worker *process* running the matched execution
    (SIGKILL under the ``processes`` backend, a simulated
    :class:`~repro.runtime.exceptions.NodeFailureError` under
    ``threads``).
    """

    task: str
    kind: str  # "fail" | "delay" | "kill" | "corrupt" | "kill_worker"
    executions: frozenset[int] | None = None
    probability: float | None = None
    delay: float = 0.0
    error: Callable[[], BaseException] | None = None
    after: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("fail", "delay", "kill", "corrupt", "kill_worker"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.executions is not None and any(n < 1 for n in self.executions):
            raise ValueError("execution indices are 1-based")
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.delay < 0:
            raise ValueError("delay must be >= 0")
        if self.after is not None and self.after < 0:
            raise ValueError("after must be >= 0")
        if self.kind == "kill" and self.after is None:
            raise ValueError("kill rules need an 'after' task count")

    def matches(self, task: str) -> bool:
        return self.task == "*" or self.task == task


def fail_nth(task: str, *executions: int, message: str | None = None) -> FaultRule:
    """Fail the given 1-based executions of *task* with
    :class:`FaultInjectedError`."""
    if not executions:
        raise ValueError("fail_nth needs at least one execution index")
    text = message or f"injected fault in {task!r}"
    return FaultRule(
        task=task,
        kind="fail",
        executions=frozenset(executions),
        error=lambda: FaultInjectedError(text),
    )


def delay_nth(task: str, *executions: int, seconds: float) -> FaultRule:
    """Stall the given executions of *task* by *seconds* (e.g. to force
    a ``time_out`` to fire deterministically)."""
    if not executions:
        raise ValueError("delay_nth needs at least one execution index")
    return FaultRule(task=task, kind="delay", executions=frozenset(executions), delay=seconds)


def kill_after_n_tasks(n: int, message: str | None = None) -> FaultRule:
    """Simulate a process kill once *n* task executions have started.

    The (n+1)-th task execution — counted across *all* task names —
    raises :class:`~repro.runtime.exceptions.WorkflowKilledError`, a
    ``BaseException`` that tears through the engine's failure policies
    like SIGKILL would.  Pair with a checkpointed runtime and the
    ``sequential`` executor to make crash/resume paths provable::

        try:
            with Runtime(executor="sequential", config=cfg):
                run_workflow()
        except WorkflowKilledError:
            pass          # "the process died"
        with Runtime(executor="sequential", config=cfg):
            run_workflow()  # resumes from the checkpoint store
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    text = message or f"workflow killed after {n} task executions"
    return FaultRule(
        task="*", kind="kill", after=n, error=lambda: WorkflowKilledError(text)
    )


def corrupt_nth(task: str, *writes: int) -> FaultRule:
    """Corrupt the given 1-based checkpoint *writes* of *task*.

    Fires on the checkpoint-write hook (not on task execution): after
    the store persists the entry, its payload bytes are flipped in
    place, so the next resume sees a checksum mismatch and must detect,
    log and recompute the entry.  ``task="*"`` corrupts any task's
    writes; named-blob writes (epoch/round checkpoints) match on their
    tag.
    """
    if not writes:
        raise ValueError("corrupt_nth needs at least one write index")
    return FaultRule(task=task, kind="corrupt", executions=frozenset(writes))


def kill_worker(task: str, *executions: int) -> FaultRule:
    """Crash the worker *process* running the given 1-based executions
    of *task* — the node-failure experiment.

    Under the ``processes`` backend the worker SIGKILLs itself mid-task;
    the coordinator detects the broken pipe and fails the attempt with
    :class:`~repro.runtime.exceptions.NodeFailureError`, which feeds the
    ordinary ``on_failure``/retry machinery (a retry lands on a fresh
    worker).  Under the ``threads`` backend the same
    :class:`NodeFailureError` is raised directly (``simulated=True``),
    so differential tests see identical failure schedules::

        with inject(kill_worker("train", 1)):   # first execution dies
            model = train.opts(max_retries=1)(data)   # retry succeeds
    """
    if not executions:
        raise ValueError("kill_worker needs at least one execution index")
    return FaultRule(task=task, kind="kill_worker", executions=frozenset(executions))


def random_failures(task: str, probability: float) -> FaultRule:
    """Fail each execution of *task* independently with *probability*
    (drawn from the injector's seeded per-name stream)."""
    return FaultRule(
        task=task,
        kind="fail",
        probability=probability,
        error=lambda: FaultInjectedError(f"injected random fault in {task!r}"),
    )


class FaultInjector:
    """Applies a set of :class:`FaultRule` to task executions.

    Use as a context manager (or via :func:`inject`) to activate; the
    runtime consults every active injector right before invoking each
    task body.  ``injector.log`` records ``(task, execution, action)``
    tuples for every fired rule, so tests can assert exactly which
    faults were injected.
    """

    def __init__(self, *rules: FaultRule, seed: int = 0):
        self.rules = tuple(rules)
        self.seed = seed
        self.log: list[tuple[str, int, str]] = []
        self._counts: dict[str, int] = {}
        self._total = 0
        self._ckpt_counts: dict[str, int] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def executions(self, task: str) -> int:
        """Executions of *task* seen so far."""
        with self._lock:
            return self._counts.get(task, 0)

    @property
    def total_executions(self) -> int:
        """Task executions seen so far across all names."""
        with self._lock:
            return self._total

    def _roll(self, task: str, execution: int) -> float:
        """Deterministic uniform draw in [0, 1) for one execution."""
        digest = hashlib.sha256(f"{self.seed}:{task}:{execution}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def on_execute(self, task: str) -> None:
        """Hook called by the engine; may sleep or raise.  Counts the
        execution (``kill_worker`` rules consult the same counter via
        :meth:`worker_kill_pending` without re-counting)."""
        matching = [
            r
            for r in self.rules
            if r.kind not in ("corrupt", "kill_worker") and r.matches(task)
        ]
        with self._lock:
            execution = self._counts.get(task, 0) + 1
            self._counts[task] = execution
            self._total += 1
            total = self._total
        if not matching:
            return
        for rule in matching:
            if rule.kind == "kill":
                if total > rule.after:
                    with self._lock:
                        self.log.append((task, execution, "kill"))
                    assert rule.error is not None
                    raise rule.error()
                continue
            if rule.executions is not None:
                fires = execution in rule.executions
            elif rule.probability is not None:
                fires = self._roll(task, execution) < rule.probability
            else:
                fires = True
            if not fires:
                continue
            if rule.kind == "delay":
                with self._lock:
                    self.log.append((task, execution, f"delay {rule.delay}s"))
                time.sleep(rule.delay)
            else:
                with self._lock:
                    self.log.append((task, execution, "fail"))
                assert rule.error is not None
                raise rule.error()

    def worker_kill_pending(self, task: str) -> bool:
        """Should the backend crash the worker running *task*'s current
        execution?  Called by the engine right after :func:`on_execute`
        counted the execution, so indices line up with ``fail_nth``."""
        with self._lock:
            execution = self._counts.get(task, 0)
        fired = False
        for rule in self.rules:
            if rule.kind != "kill_worker" or not rule.matches(task):
                continue
            if rule.executions is not None:
                fires = execution in rule.executions
            elif rule.probability is not None:
                fires = self._roll(f"kw:{task}", execution) < rule.probability
            else:
                fires = True
            if fires:
                with self._lock:
                    self.log.append((task, execution, "kill_worker"))
                fired = True
        return fired

    def on_checkpoint(self, task: str, path: str) -> None:
        """Hook called by the checkpoint store after persisting an entry
        for *task* (or a named blob, matched on its tag)."""
        with self._lock:
            write = self._ckpt_counts.get(task, 0) + 1
            self._ckpt_counts[task] = write
        for rule in self.rules:
            if rule.kind != "corrupt" or not rule.matches(task):
                continue
            if rule.executions is not None:
                fires = write in rule.executions
            elif rule.probability is not None:
                fires = self._roll(f"ckpt:{task}", write) < rule.probability
            else:
                fires = True
            if fires:
                with self._lock:
                    self.log.append((task, write, "corrupt"))
                _flip_last_byte(path)

    # ------------------------------------------------------------------
    def __enter__(self) -> "FaultInjector":
        _push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _pop(self)


@contextlib.contextmanager
def inject(*rules: FaultRule, seed: int = 0) -> Iterator[FaultInjector]:
    """Activate a :class:`FaultInjector` for the enclosed block."""
    injector = FaultInjector(*rules, seed=seed)
    with injector:
        yield injector


# ----------------------------------------------------------------------
# active-injector stack (innermost first)
# ----------------------------------------------------------------------
_active: list[FaultInjector] = []
_active_lock = threading.Lock()


def _push(injector: FaultInjector) -> None:
    with _active_lock:
        _active.append(injector)


def _pop(injector: FaultInjector) -> None:
    with _active_lock:
        if injector in _active:
            _active.remove(injector)


def on_task_execute(task: str) -> None:
    """Engine hook: apply every active injector to one execution."""
    if not _active:  # unlocked fast bail — list append/remove is atomic
        return
    with _active_lock:
        injectors = list(reversed(_active))
    for injector in injectors:
        injector.on_execute(task)


def worker_kill_requested(task: str) -> bool:
    """Engine hook: does any active injector want the worker process
    running *task*'s current execution crashed?"""
    if not _active:
        return False
    with _active_lock:
        injectors = list(reversed(_active))
    return any([inj.worker_kill_pending(task) for inj in injectors])


def on_checkpoint_write(task: str, path: str) -> None:
    """Checkpoint-store hook: let active injectors corrupt the freshly
    written entry file (``corrupt_nth`` rules)."""
    if not _active:
        return
    with _active_lock:
        injectors = list(reversed(_active))
    for injector in injectors:
        injector.on_checkpoint(task, path)


def _flip_last_byte(path: str) -> None:
    """In-place single-byte corruption of a file's payload tail."""
    with open(path, "r+b") as fh:
        fh.seek(-1, 2)
        byte = fh.read(1)
        fh.seek(-1, 2)
        fh.write(bytes([byte[0] ^ 0xFF]))
