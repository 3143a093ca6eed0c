"""Task model: specifications (the decorated function) and instances
(one node of the dependency graph per invocation)."""

from __future__ import annotations

import dataclasses
import functools
import threading
from typing import Any, Callable

from repro.runtime.directions import Direction
from repro.runtime.failures import NO_OPTIONS, TaskOptions
from repro.runtime.future import Future

#: Task lifecycle states.
PENDING = "pending"
READY = "ready"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
#: Failed, but the failure was swallowed by ``on_failure="IGNORE"`` —
#: successors run against the declared default value.
IGNORED = "ignored"
CANCELLED = "cancelled"
#: Completed without executing: the result was replayed from the
#: checkpoint store (trace/graph status of resumed tasks).
RESTORED = "restored"

#: States from which an instance never moves again.
TERMINAL_STATES = frozenset({DONE, FAILED, IGNORED, CANCELLED})

#: The task lifecycle state machine.  ``PENDING -> RUNNING`` is the
#: sequential executor (submission executes inline, skipping READY);
#: ``PENDING -> DONE`` is a checkpoint restore (the body never runs).
#: The runtime validates every transition against this table
#: (``Runtime.check_invariants`` reports the illegal ones).
VALID_TRANSITIONS: dict[str, frozenset[str]] = {
    PENDING: frozenset({READY, RUNNING, DONE, CANCELLED}),
    READY: frozenset({RUNNING, CANCELLED}),
    RUNNING: frozenset({DONE, FAILED, IGNORED, CANCELLED}),
    DONE: frozenset(),
    FAILED: frozenset(),
    IGNORED: frozenset(),
    CANCELLED: frozenset(),
}


@dataclasses.dataclass(frozen=True)
class Constraints:
    """Resource constraints of a task, mirroring COMPSs ``@constraint``.

    ``computing_units`` is the number of cores the task occupies on its
    node while running; ``gpus`` the number of GPU devices.  These are
    ignored by the local thread executor (which models one core per
    worker) but drive the cluster simulator's placement decisions.
    """

    computing_units: int = 1
    gpus: int = 0

    def __post_init__(self) -> None:
        if self.computing_units < 1:
            raise ValueError("computing_units must be >= 1")
        if self.gpus < 0:
            raise ValueError("gpus must be >= 0")


@dataclasses.dataclass(frozen=True)
class TaskSpec:
    """Immutable description of a task type (one per decorated function)."""

    func: Callable[..., Any]
    name: str
    returns: int
    directions: dict[str, Direction]
    constraints: Constraints
    #: Parameter names of the function, positionally ordered (for
    #: mapping positional args onto declared directions).
    param_names: tuple[str, ...]
    #: Declared parameter defaults, so direction-annotated parameters
    #: left at their default still take part in dependency detection
    #: (an INOUT parameter at its default records a write like any
    #: explicitly-passed argument).
    param_defaults: dict[str, Any] = dataclasses.field(default_factory=dict)
    #: Decorator-level option defaults (``on_failure``, ``max_retries``,
    #: ``time_out``, ...); call sites override them via ``.opts(...)``.
    options: TaskOptions = NO_OPTIONS

    #: Running estimate of one body's seconds over the attempts that
    #: completed in this process, None until the first one did.  Not a
    #: field: it lives in the instance ``__dict__`` (``observe_body``),
    #: so every runtime of the process reads what any of them measured.
    body_estimate = None

    def observe_body(self, seconds: float) -> None:
        """Fold one completed body's *seconds* into ``body_estimate``.
        A sample is never shorter than the body but can be far longer —
        preempted, or waiting for the interpreter lock — so a shorter
        sample is taken as it is and a longer one at most doubles the
        estimate: one outlier does not move a tiny body past the inline
        threshold, and a body whose cost really grew crosses it within
        a few calls.  Racing writers may lose an update; an estimate can
        afford it."""
        est = self.body_estimate
        self.__dict__["body_estimate"] = seconds if est is None else min(seconds, 2.0 * est)

    @functools.cached_property
    def has_writes(self) -> bool:
        # Per-spec constant, but on the submit hot path (the argument
        # scan and the checkpoint signature both check it) — cache the
        # dict walk.  ``cached_property`` writes straight into the
        # instance ``__dict__``, which a frozen dataclass still has.
        return any(d is not Direction.IN for d in self.directions.values())


@dataclasses.dataclass(frozen=True, slots=True)
class TaskCall:
    """One deferred task invocation, for batch submission.

    Built with ``my_task.defer(*args, **kwargs)`` (or
    ``my_task.opts(...).defer(...)`` to carry call-site option
    overrides) and handed to ``Runtime.submit_many``, which submits a
    whole list under one intake pass.  Nothing runs at construction —
    a ``TaskCall`` is just the frozen call site."""

    spec: TaskSpec
    args: tuple = ()
    kwargs: dict = dataclasses.field(default_factory=dict)
    options: TaskOptions | None = None
    label: str | None = None


class TaskInstance:
    """One submitted invocation of a task — a node of the DAG."""

    __slots__ = (
        "task_id",
        "spec",
        "args",
        "kwargs",
        "deps",
        "futures",
        "state",
        "runtime",
        "_parent",
        "label",
        "error",
        "options",
        "attempt",
        "retry_of",
        "root_id",
        "signature",
        "worker_pid",
        "t_submit",
        "t_ready",
        "t_dispatch",
        "t_body_start",
        "t_end",
        "worker_name",
        "bytes_moved",
        "bytes_saved",
        "trace_ctx",
        "status",
        "t_start",
        "in_bytes",
        "out_bytes",
        "error_repr",
        "_trace_record",
        "resolve_args",
        "_pending",
        "_remaining",
        "_lock",
        "_abandoned",
        "_finalized",
    )

    def __init__(
        self,
        task_id: int,
        spec: TaskSpec,
        args: tuple[Any, ...],
        kwargs: dict[str, Any],
        deps: frozenset[int],
        futures: tuple[Future, ...],
        runtime,
        parent: "TaskInstance | None",
        label: str | None,
    ):
        self.task_id = task_id
        self.spec = spec
        self.args = args
        self.kwargs = kwargs
        self.deps = deps
        self.futures = futures
        self.state = PENDING
        #: The runtime this attempt was submitted to: a thread running
        #: its body is bound to the attempt (:mod:`repro.runtime.active`)
        #: and so submits there.
        self.runtime = runtime
        #: The attempt whose body submitted this one (None: top level).
        self._parent = parent
        self.label = label
        #: The attempt's ``TaskExecutionError`` once it failed; for an
        #: attempt cancelled because an upstream failed, that upstream's.
        self.error: BaseException | None = None
        #: Resolved effective options, set by the runtime at submission.
        self.options = None
        #: 0-based attempt number; > 0 for runtime resubmissions.
        self.attempt = 0
        #: task_id of the previous attempt (None for first attempts).
        self.retry_of: int | None = None
        #: task_id of the first attempt (== task_id when attempt == 0).
        self.root_id = task_id
        #: Deterministic checkpoint signature (None = not checkpointable).
        self.signature: str | None = None
        #: pid of the OS process that ran (or crashed running) this
        #: attempt's body — the coordinator pid for the thread backend,
        #: a pool worker's pid when the process backend dispatched it.
        self.worker_pid: int | None = None
        #: Lifecycle span timestamps (monotonic, relative to the
        #: runtime's epoch), stamped by the engine as the attempt moves
        #: through ``submitted -> ready -> dispatched -> running ->
        #: terminal``.  None until the corresponding transition.
        self.t_submit: float | None = None
        self.t_ready: float | None = None
        self.t_dispatch: float | None = None
        self.t_body_start: float | None = None
        self.t_end: float | None = None
        #: Name of the worker thread that claimed this attempt.
        self.worker_name: str | None = None
        #: Data-plane accounting of this attempt (stamped by the engine
        #: from the backend's per-call info): bytes freshly mapped into
        #: the executing worker, and pickle-pipe bytes avoided by
        #: passing shared-memory references instead of buffers.
        self.bytes_moved = 0
        self.bytes_saved = 0
        #: Distributed-trace context of this attempt
        #: (:class:`~repro.runtime.tracectx.TraceContext`), minted at
        #: submission when trace collection is on; None otherwise.
        self.trace_ctx = None
        #: What the trace says about this attempt and nothing else on
        #: the instance does, stamped by ``Runtime._record`` as the
        #: attempt retires: the span start (body start, or the dispatch
        #: stamp when the body never began), argument/result byte
        #: estimates, ``repr`` of the causing exception — and, last,
        #: the record status ("done" | "failed" | "ignored" |
        #: "restored").  ``status`` stays None while the
        #: attempt is live and for cancelled attempts, which never ran
        #: and have no record.
        self.status: str | None = None
        self.t_start: float | None = None
        self.in_bytes = 0
        self.out_bytes = 0
        self.error_repr: str | None = None
        #: The :class:`~repro.runtime.tracing.TaskRecord` shaped from
        #: the fields above by the first ``Runtime.trace()`` that reads
        #: this attempt; later reads reuse it.
        self._trace_record = None
        #: Nested attempts submitted by this attempt's body and not yet
        #: retired, written under the runtime's ``_state_lock``; the
        #: body waits for zero before the attempt completes.
        self._pending = 0
        #: False when no argument is a future or a container: the body
        #: then takes the arguments as submitted.
        self.resolve_args = True
        self._remaining = len(deps)
        self._lock = threading.Lock()
        #: True once a timed-out body thread was abandoned.
        self._abandoned = False
        #: Guards completion bookkeeping against the run/cancel race.
        self._finalized = False

    def dep_completed(self) -> bool:
        """Mark one dependency as satisfied; True if the task became ready."""
        with self._lock:
            self._remaining -= 1
            return self._remaining == 0

    def claim_run(self) -> str | None:
        """Atomically claim the right to execute this instance.

        Returns the previous state on success (the claimer must run the
        body), or ``None`` when the instance was already cancelled or
        finalized.  Mutually exclusive with :meth:`try_cancel` under
        ``_lock``, closing the race between a worker picking a task up
        and an abort cancelling it."""
        with self._lock:
            if self._finalized or self.state == CANCELLED:
                return None
            prev = self.state
            self.state = RUNNING
            return prev

    def try_cancel(self) -> str | None:
        """Atomically claim cancellation of a not-yet-running instance.

        Returns the previous state on success (the claimer must run the
        cancellation bookkeeping exactly once), or ``None`` when the
        instance already started running or was already finalized."""
        with self._lock:
            if self._finalized or self.state == RUNNING:
                return None
            prev = self.state
            self.state = CANCELLED
            self._finalized = True
            return prev

    def try_ready(self) -> str | None:
        """Atomically mark a not-yet-running instance READY.  Returns
        the previous state, or ``None`` when a cancellation finalized
        it first.  Mutually exclusive with :meth:`try_cancel` under
        ``_lock``, closing the race between releasing a dependent and
        an abort cancelling it."""
        with self._lock:
            if self._finalized:
                return None
            prev = self.state
            self.state = READY
            return prev

    def try_finalize(self) -> bool:
        """Claim the right to run this instance's completion
        bookkeeping (pending/unfinished counts, child propagation).
        Exactly one caller wins; the loser must do nothing."""
        with self._lock:
            if self._finalized:
                return False
            self._finalized = True
            return True

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def parent_id(self) -> int | None:
        """task_id of the attempt whose body submitted this one."""
        parent = self._parent
        return None if parent is None else parent.task_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TaskInstance {self.name}#{self.task_id} {self.state}>"
