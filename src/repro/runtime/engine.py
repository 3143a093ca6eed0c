"""The runtime engine: dependency detection, scheduling and execution.

This is the COMPSs-runtime analog.  A :class:`Runtime` accepts task
submissions (made implicitly by calling ``@task``-decorated functions),
derives data dependencies from the arguments (futures and versioned
INOUT objects), registers the task, and executes tasks either
inline (``sequential`` executor) or on a pool of worker threads
(``threads`` executor).  *Where the task body runs* is a separate
axis with two places: the scheduling thread calls the body itself by
default, and with ``RuntimeConfig(backend="processes")`` it hands the
resolved call to the runtime's
:class:`~repro.runtime.backends.ProcessPoolBackend`, which runs it on
the idle persistent worker process (see :mod:`repro.runtime.backends`).

Worker threads use *help-while-waiting*: any thread blocked in
``wait_on`` or a barrier keeps executing ready tasks, so nested task
graphs (tasks spawning tasks, the paper's "nesting" feature) can never
deadlock the pool.  A thread running a body is bound to that body's
attempt (:mod:`repro.runtime.active`), so what the body submits counts
on the attempt's ``_pending`` and the body waits for zero before its
attempt completes; everything else submitted counts at top level
(``_unfinished_top``), which is what the application's ``barrier()``
waits for.

The scheduler is **event-driven**: idle threads park with *no
timeout* — idle workers on ``_cond``, blocked waiters on
``_waiter_cond``, one lock under both — and are woken only by events:
a task enqueue (targeted ``notify`` of workers and of one waiter), a
completion/cancellation (broadcast to the waiters), a kill, an abort,
or shutdown.  Every state change a parked thread's
predicate can depend on is followed by a notification issued *after*
the change is visible, and parked threads re-check their predicate
under the condition's lock before waiting, so no wakeup can be lost
(see ``docs/architecture.md`` for the full argument).  A waiter that
parked and then exits with work still queued re-issues one ``notify``
(the hand-off baton), so a targeted wakeup absorbed by a thread that
did not consume the ready task is always passed on.

A completing thread runs the successor it releases: when a body's
attempt completes, ``_complete`` keeps at most one of the children it
released — unless a queued task outranks it — and the thread that ran
the body runs it next, in ``_worker_loop``'s or ``_help_until``'s loop,
with no heap push and no wakeup; every other released child queues
and is notified, so fan-out stays parallel.  The kept child needs no
wakeup because the thread holding it runs it; a ``_help_until`` wait
that ends first (its predicate holds, or it raises) queues it instead.

A task too small to hand off runs on the thread that submits it:
when a task is ready at submission under the threads executor with no
process backend, has no ``time_out``, is outranked by nothing queued,
and its spec's running body-time estimate (``TaskSpec.body_estimate``,
written by every in-process attempt that completes) is below
``INLINE_BELOW_S``, ``submit``/``submit_many`` mark it READY and run it
there instead of pushing it and waking a worker.  Every other task —
each spec's first calls included — queues.

The submission path is split across locks so concurrent submitters do
not serialise on one global lock: dependency detection runs under a
dedicated ``_dep_lock`` (keeping registry write-chains and task-id
order consistent), checkpoint-signature hashing under ``_sig_lock``,
the ready queue under the scheduler condition, and only the cheap
bookkeeping (task registration, pending counts) under ``_state_lock``.
A dependency discovered through the registry may name a task that has
allocated its id but not yet finished registering; it is counted as
unresolved and its completion — which necessarily happens after its
registration — releases the child like any other.

A task is written down once: its :class:`TaskInstance` in the task
table ``_tasks``, the only per-task structure the task path writes.
``Runtime.graph``, ``Runtime.trace()``, ``Runtime.stats()``, the
lifecycle history a flight-recorder dump holds and the
checkpoint lineage key of a future are views shaped from that table
when read — nothing is pushed to observers; as an attempt retires,
``_record`` stamps on the instance what only its trace record knows,
and finalization drops the instance's arguments — a retired task keeps
its scalars, not its payload.

Failure management (COMPSs ``on_failure``) lives here too: when a task
attempt raises — organically, via an injected fault, or through the
``time_out`` watchdog — the engine either resubmits it (a *new* DAG
node chained to the failed attempt, so retries are visible in the trace
and DOT export), substitutes the declared default (``IGNORE``), cancels
the transitive successors (``CANCEL_SUCCESSORS``, the default), or
aborts the whole workflow (``FAIL``).
"""

from __future__ import annotations

import collections
import heapq
import logging
import os
import threading
import time
import traceback
from typing import Any, Callable, Iterable

from repro.runtime import checkpoint as ckpt
from repro.runtime.active import (  # noqa: F401 - re-exported
    Binding,
    _tls,
    active_runtime,
    pop_runtime,
    push_runtime,
)
from repro.runtime import backends as _backends
from repro.runtime.config import RuntimeConfig
from repro.runtime.dag import TaskGraph
from repro.runtime.directions import Direction
from repro.runtime.exceptions import (
    CancelledTaskError,
    RuntimeStateError,
    TaskExecutionError,
    TaskTimeoutError,
    WorkflowAbortedError,
)
from repro.runtime.failures import (
    FAIL,
    IGNORE,
    JITTER_SEED,
    RETRY_BACKOFF_CAP,
    TaskOptions,
    resolve_options,
    retry_delay,
    split_default,
)
from repro.runtime.future import Future, resolve_futures, scan_futures
from repro.runtime.model import (
    CANCELLED,
    DONE,
    FAILED,
    IGNORED,
    PENDING,
    READY,
    RESTORED,
    RUNNING,
    TERMINAL_STATES,
    VALID_TRANSITIONS,
    TaskCall,
    TaskInstance,
    TaskSpec,
)
from repro.runtime import observability as obs
from repro.runtime import tracectx as _tracectx
from repro.runtime.registry import DataRegistry
from repro.runtime.store import ObjectRef, ObjectStore, scan_refs
from repro.runtime.tracing import (
    SchedulerCounters,
    TaskRecord,
    Trace,
    estimate_nbytes,
    payload_nbytes,
)

_logger = logging.getLogger("repro.runtime")

_ckpt_logger = logging.getLogger("repro.runtime.checkpoint")

#: ``VALID_TRANSITIONS`` plus staying put, the table for every
#: transition but the claim (see ``_execute``), so the check is one set
#: test.
_ALLOWED = {state: nxt | {state} for state, nxt in VALID_TRANSITIONS.items()}

#: A task whose spec's ``body_estimate`` is below this many seconds runs
#: on the thread that submits it (``Runtime._start``).  Read off
#: ``scripts/handoff.py`` (DESIGN.md §27): a hand-off costs a no-op
#: 3-4 µs on one CPU and 6-8 µs across two, bodies up to 20 µs run
#: faster in place on either, and only a ~50 µs body was once seen to
#: gain from the second CPU.  The estimates of a no-op (~0.9 µs) and of
#: a two-argument ``add`` (2-3 µs) sit a third of it or less, so a host
#: twice as slow keeps the decision.
INLINE_BELOW_S = 10e-6


class Runtime:
    """A task runtime instance.

    Parameters
    ----------
    config:
        A :class:`~repro.runtime.config.RuntimeConfig`.  When omitted,
        :meth:`RuntimeConfig.from_env` is used, so ``REPRO_*``
        environment variables apply.
    executor, max_workers, name, backend:
        Keyword shortcuts overriding the corresponding config fields.
        ``executor="threads"`` runs tasks on a worker-thread pool
        (NumPy kernels release the GIL, so block math really runs in
        parallel); ``"sequential"`` executes each task inline at
        submission time, which is deterministic and is what most unit
        tests use.  ``backend="processes"`` additionally dispatches
        task *bodies* to persistent worker processes
        (:mod:`repro.runtime.backends`).
    """

    _ids = 0
    _ids_lock = threading.Lock()

    def __init__(
        self,
        *,
        executor: str | None = None,
        max_workers: int | None = None,
        name: str | None = None,
        backend: str | None = None,
        config: RuntimeConfig | None = None,
    ):
        cfg = config if config is not None else RuntimeConfig.from_env()
        overrides = {
            key: value
            for key, value in (
                ("executor", executor),
                ("max_workers", max_workers),
                ("name", name),
                ("backend", backend),
            )
            if value is not None
        }
        if overrides:
            cfg = cfg.replace(**overrides)
        self.config = cfg

        with Runtime._ids_lock:
            Runtime._ids += 1
            self.runtime_id = Runtime._ids
        self.name = cfg.name
        self.executor = cfg.executor
        self.max_workers = cfg.max_workers or (os.cpu_count() or 4)
        #: Where bodies run.  The sequential executor's contract is
        #: run-inline-at-submission (deterministic, nested tasks become
        #: DAG nodes), so backend selection only applies to the pooled
        #: executor.
        self.backend_name = cfg.backend if self.executor == "threads" else "threads"
        #: Shared-memory object store (:mod:`repro.runtime.store`).
        #: Created lazily by the ``store`` property so runtimes that
        #: never touch it pay nothing; created eagerly here when the
        #: process backend passes data by reference (``store="auto"``
        #: resolves to on exactly then).
        self._store: ObjectStore | None = None
        self._store_lock = threading.Lock()
        #: The process backend, or None: the scheduling thread calls
        #: the body itself (``_run_body``).
        self._backend: _backends.ProcessPoolBackend | None = None
        if self.backend_name == "processes":
            self._backend = _backends.ProcessPoolBackend(
                self.max_workers, store=self.store if cfg.store != "off" else None
            )
        self.registry = DataRegistry()
        self._progress: obs.ProgressReporter | None = None
        if "progress" in obs.parse_flags(cfg.observability):
            self._progress = obs.ProgressReporter(self._attempts, label=cfg.name)
        #: Crash flight recorder: the tail of the lifecycle view of the
        #: task table, dumped to ``cfg.flightrec_dir`` on kill/abort
        #: (and by the hang watchdog / service SIGTERM handler via
        #: :func:`repro.runtime.flightrec.dump_all`).
        self.flight_recorder = None
        if cfg.flightrec_dir:
            from repro.runtime.flightrec import FlightRecorder

            self.flight_recorder = FlightRecorder(
                lambda: obs.lifecycle_events(self._attempts()),
                name=cfg.name,
                dump_dir=cfg.flightrec_dir,
                stats=self.stats,
            )
        #: every attempt, keyed by its own task id (retries included)
        #: — the one per-task record: ``graph``, ``trace()`` and
        #: ``stats()`` are views shaped from it when read.
        self._tasks: dict[int, TaskInstance] = {}
        #: root task id -> *latest* attempt.  Futures and dependency
        #: edges reference root ids, so dependents submitted mid-retry
        #: must see the live attempt, while ``_tasks`` keeps every
        #: attempt distinct for ``stats()`` and the trace.
        self._by_root: dict[int, TaskInstance] = {}
        self._children: dict[int, list[TaskInstance]] = collections.defaultdict(list)
        self._next_task_id = 0
        #: Guards cheap bookkeeping only: task registration, unfinished
        #: counts, timers, abort/kill flags.  Never held while acquiring
        #: the scheduler condition.
        self._state_lock = threading.Lock()
        #: Serialises dependency detection: task-id allocation plus the
        #: registry read/write pass, so INOUT write-chains stay ordered
        #: by task id even under concurrent submission.
        self._dep_lock = threading.Lock()
        #: Guards checkpoint-signature state (occurrence counters,
        #: identity cache) — hashing itself runs outside every lock.
        self._sig_lock = threading.Lock()
        #: ready heap: (-priority, seq, TaskInstance) — higher priority
        #: first, FIFO within a priority level (seq is unique, so the
        #: third slot never compares).  Guarded by ``_cond``.
        self._ready: list[tuple[int, int, TaskInstance]] = []
        self._ready_seq = 0
        #: The scheduler condition: idle workers park here with no
        #: timeout; every producer of work notifies it.
        lock = threading.RLock()
        self._cond = threading.Condition(lock)
        #: Where ``_help_until`` waiters park, on ``_cond``'s lock: a
        #: completion has news only for them (``_broadcast``), and a
        #: push wakes one of them besides the workers, since they help.
        self._waiter_cond = threading.Condition(lock)
        #: Threads parked in ``_help_until`` (written under ``_cond``).
        self._waiting = 0
        self._shutdown = False
        self._threads: list[threading.Thread] = []
        self._timers: set[threading.Timer] = set()
        #: Resolved-options cache keyed by the identity of the
        #: (spec options, call options) pair — floods of calls to the
        #: same task re-merge identical options thousands of times on
        #: the submit hot path otherwise.  Values keep strong refs to
        #: the keyed objects so ids cannot be recycled underneath the
        #: cache; reads/writes are single dict ops (atomic under the
        #: interpreter lock), a lost race just recomputes.
        self._opts_cache: dict[tuple[int, int], tuple] = {}
        self._epoch = time.perf_counter()
        self._unfinished_total = 0
        #: Top-level attempts not yet retired (submitted by no body of
        #: this runtime): what the application's ``barrier()`` waits
        #: for.  A body's own children are counted on its attempt
        #: (``TaskInstance._pending``).  Both under ``_state_lock``.
        self._unfinished_top = 0
        self._aborted: BaseException | None = None
        self._killed: BaseException | None = None
        # -- streaming integration -------------------------------------
        #: External wakeup callbacks (stream conditions, long-lived
        #: stage waiters) notified by every ``_broadcast`` and by
        #: shutdown: a thread parked on a condition the scheduler does
        #: not own must still observe kill/abort/shutdown promptly.
        #: Guarded by ``_state_lock``; callbacks run outside all locks.
        self._interrupts: set[Callable[[], None]] = set()
        #: Drain hooks invoked at the start of ``shutdown(wait=True)``,
        #: before the unfinished-count drain wait: a registered stream
        #: graph stops its sources and joins its stages here, so the
        #: tasks those stages were still going to submit land while the
        #: runtime is accepting and drain with everything else.
        self._drain_hooks: list[Callable[[], None]] = []
        # -- monitoring counters ---------------------------------------
        self._counters = SchedulerCounters()
        self._n_timeouts = 0
        # -- invariant tracking ----------------------------------------
        self._violations: list[str] = []
        self._violations_lock = threading.Lock()
        # -- checkpoint/restart ----------------------------------------
        #: Store persisting completed task outputs (None = disabled).
        self.checkpoint_store: ckpt.CheckpointStore | None = (
            ckpt.CheckpointStore(cfg.checkpoint_dir) if cfg.checkpoint_dir else None
        )
        #: function-identity cache (source hashing is not free).
        self._identities: dict[int, str] = {}
        #: call-lineage counters: base signature -> occurrences so far.
        self._sig_counts: collections.Counter[str] = collections.Counter()
        self._n_checkpoint_writes = 0
        if self.executor == "threads":
            self._start_workers()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _start_workers(self) -> None:
        for i in range(self.max_workers):
            t = threading.Thread(
                target=self._worker_loop, name=f"{self.name}-worker-{i}", daemon=True
            )
            t.start()
            self._threads.append(t)

    @property
    def unfinished(self) -> int:
        """Tasks submitted (top level or nested) that have not completed."""
        with self._state_lock:
            return self._unfinished_total

    def shutdown(self, wait: bool = True) -> None:
        """Stop the runtime.  With ``wait=True`` (default) drains every
        unfinished task first — top-level *and* nested ones — so no
        in-flight task is lost.  A drain cut short by a recorded
        invariant violation (:class:`RuntimeStateError`) or by a kill
        is raised after the teardown."""
        was_shutdown = self._shutdown
        drain_error: BaseException | None = None
        if wait and not was_shutdown:
            # Streaming drain first: stream graphs stop their sources
            # and join their stages while the runtime still accepts
            # submissions, so in-flight windows/micro-batches become
            # ordinary unfinished tasks that the wait below drains.
            for hook in self._snapshot_drain_hooks():
                try:
                    hook()
                except Exception:  # noqa: BLE001 - shutdown must proceed
                    _logger.exception("shutdown drain hook failed")
            try:
                self._help_until(lambda: self.unfinished == 0)
            except BaseException as exc:  # noqa: BLE001 - re-raised after teardown
                if not isinstance(exc, RuntimeStateError) and exc is not self._killed:
                    raise
                drain_error = exc
        with self._cond:
            self._shutdown = True
            self._counters.broadcasts += 1
            self._cond.notify_all()
            self._waiter_cond.notify_all()
        # After the flag flip: wake externally-parked threads (stream
        # put/get waiters) so they observe the shutdown instead of
        # sleeping on a condition no worker will ever notify again.
        self._notify_interrupts()
        with self._state_lock:
            timers = list(self._timers)
            self._timers.clear()
        for timer in timers:
            timer.cancel()
        for t in self._threads:
            t.join(timeout=5.0)
        if self._backend is not None:
            self._backend.shutdown()
        self.registry.clear()
        # The store goes down after the backend: no call can be in
        # flight anymore, so unlinking segments (and sweeping orphans
        # left by crashed workers) is race-free.
        if self._store is not None:
            self._store.shutdown()
        if not was_shutdown and self._progress is not None:
            self._progress.close()
        if not was_shutdown and self.flight_recorder is not None:
            self.flight_recorder.close()
        if drain_error is not None:
            raise drain_error

    def __enter__(self) -> "Runtime":
        push_runtime(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pop_runtime(self)
        self.shutdown(wait=exc_type is None)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _now(self) -> float:
        """Monotonic seconds since this runtime's epoch (the clock of
        every trace timestamp and lifecycle row)."""
        return time.perf_counter() - self._epoch

    # ------------------------------------------------------------------
    # data plane (shared-memory object store)
    # ------------------------------------------------------------------
    @property
    def store(self) -> ObjectStore:
        """The runtime's shared-memory object store
        (:mod:`repro.runtime.store`), created on first use — a runtime
        that never passes data by reference pays nothing for it."""
        with self._store_lock:
            if self._store is None:
                self._store = ObjectStore()
            return self._store

    def put(self, value: Any) -> ObjectRef:
        """Place *value* (a NumPy array, or anything ``np.asarray``
        accepts except object dtype) in the object store and return its
        :class:`~repro.runtime.store.ObjectRef`.

        The ref is a tiny picklable handle accepted anywhere the value
        itself would be: task arguments (workers read the buffer
        zero-copy through shared memory instead of receiving a pickled
        copy per call), ``Runtime.get``/``wait_on`` and the ``compat``
        API.  Putting the *same array object* again is a dedup hit
        returning the existing ref.  Call :meth:`release` when the
        object is no longer needed; anything still stored is freed at
        shutdown."""
        return self.store.put(value)

    def get(self, obj: Any, copy: bool = False) -> Any:
        """Synchronise *obj* — futures wait and resolve, refs turn into
        their stored arrays (read-only zero-copy views unless *copy*),
        containers are rebuilt.  The ref-aware superset of
        :meth:`wait_on`."""
        return self._gather(obj, copy)

    def release(self, obj: Any) -> int:
        """Drop one reference on every ref reachable from *obj*
        (including refs held by already-resolved futures in it) — the
        COMPSs ``compss_delete_object`` analog.  The last drop frees
        the shared-memory segment deterministically.  Returns the
        number of refs released."""
        store = self._store
        if store is None:
            return 0
        refs = scan_refs(obj)
        for fut in scan_futures(obj):
            if fut.done:
                try:
                    refs.extend(scan_refs(fut.result()))
                except Exception:  # noqa: BLE001 - failed futures hold no refs
                    pass
        for ref in refs:
            store.release(ref)
        return len(refs)

    # ------------------------------------------------------------------
    # submission & dependency detection
    # ------------------------------------------------------------------
    def submit(
        self,
        spec: TaskSpec,
        args: tuple[Any, ...],
        kwargs: dict[str, Any],
        options: TaskOptions | None = None,
        initial_attempt: int = 0,
    ) -> Any:
        """Submit one task invocation; returns its future(s) (or None
        when the task declares no return values).

        *options* carries call-site overrides (from ``my_task.opts(...)``).
        *initial_attempt* seeds the attempt counter — used by layers
        that own redelivery themselves (the durable queue service
        re-submits a leased task with its queue-level attempt number so
        ``current_attempt()`` inside the body, retry backoff and the
        trace all see the true lineage rather than restarting at zero).
        """
        self._check_accepting()
        resolved = self._resolve_options_cached(spec, options)
        parent, ctx = self._submitting_attempt()

        # -- phase 1 (no lock): argument scan ---------------------------
        future_deps, bound, resolve = self._scan_call(spec, args, kwargs)

        # -- phase 2 (dep lock): id allocation + registry pass ----------
        self._lock_deps()
        try:
            task_id, deps = self._detect_deps_locked(spec, bound, future_deps, args, kwargs)
        finally:
            self._dep_lock.release()

        inst = self._build_instance(
            spec, args, kwargs, deps, parent, ctx, resolved.label, resolved, task_id, resolve
        )
        if initial_attempt:
            inst.attempt = initial_attempt

        # -- phases 3-4: signature, registration ------------------------
        if self._admit(inst, self._register(inst)):
            self._start(inst)
        return self._returns_of(inst)

    def submit_many(self, calls: Iterable[Any]) -> list[Any]:
        """Submit a batch of task invocations in one intake pass;
        returns their futures (or ``None`` for no-return tasks) in call
        order.

        *calls* items are :class:`~repro.runtime.model.TaskCall`
        objects (built with ``my_task.defer(...)``) or plain
        ``(task, args)`` / ``(task, args, kwargs)`` tuples, where
        *task* is a ``@task``-decorated function (or a raw
        :class:`~repro.runtime.model.TaskSpec`).

        The batch pays the submit-path locking once instead of once per
        call: dependency detection for every call runs under a single
        dependency-lock acquisition (ids are allocated contiguously, in
        call order) and all immediately-ready tasks enter the scheduler
        under one condition acquisition with one grouped wakeup.
        Batch calls may depend on futures of *previously submitted*
        tasks; futures of calls inside the same batch do not exist
        until ``submit_many`` returns, so intra-batch edges can only
        arise through INOUT object identity — which the ordered
        registry pass resolves exactly like sequential submissions.
        """
        # Shutdown/abort must reject the batch before anything else —
        # including the empty batch, for exact parity with submit().
        self._check_accepting()
        normalized = [
            self._normalize_call(call, index) for index, call in enumerate(calls)
        ]
        if not normalized:
            return []
        parent, ctx = self._submitting_attempt()

        # -- phase 1 (no lock), once per call ---------------------------
        prepared = []
        for spec, args, kwargs, options, label in normalized:
            resolved = self._resolve_options_cached(spec, options)
            effective_label = label if label is not None else resolved.label
            future_deps, bound, resolve = self._scan_call(spec, args, kwargs)
            prepared.append(
                (spec, args, kwargs, resolved, effective_label, future_deps, bound, resolve)
            )

        # -- phase 2: one dep-lock acquisition for the whole batch ------
        self._lock_deps()
        try:
            allocated = [
                self._detect_deps_locked(spec, bound, future_deps, args, kwargs)
                for spec, args, kwargs, _resolved, _label, future_deps, bound, _r in prepared
            ]
        finally:
            self._dep_lock.release()

        insts = [
            self._build_instance(
                spec, args, kwargs, deps, parent, ctx, label, resolved, task_id, r
            )
            for (spec, args, kwargs, resolved, label, _fd, _b, r), (task_id, deps) in zip(
                prepared, allocated
            )
        ]

        if self.executor == "sequential":
            # Per-call registration + in-order inline execution: an
            # entry's INOUT deps on earlier batch entries are already
            # done when it runs (batched registration would instead
            # leave intra-batch children parked on a queue that the
            # sequential executor never drains).
            for inst in insts:
                self._admit(inst, self._register(inst))
        else:
            # -- phases 3-4: one batched registration pass, then dispatch
            # in call order: one grouped enqueue, then the small tasks
            # run here.
            lookups = [self._checkpoint_lookup(inst) for inst in insts]
            with self._state_lock:
                registered = [
                    self._register_locked(inst, restored)
                    for inst, restored in zip(insts, lookups)
                ]
            queued: list[TaskInstance] = []
            small: list[TaskInstance] = []
            for inst, reg in zip(insts, registered):
                if self._admit(inst, reg):
                    (small if self._small(inst) else queued).append(inst)
            self._enqueue(*queued)
            for k, inst in enumerate(small):
                try:
                    self._start(inst)
                except BaseException:
                    # A kill out of one body: the rest still run, on
                    # the pool.
                    self._enqueue(*small[k + 1 :])
                    raise
        return [self._returns_of(inst) for inst in insts]

    # -- submission helpers (shared by submit / submit_many) ------------
    def _check_accepting(self) -> None:
        if self._shutdown:
            raise RuntimeStateError("runtime has been shut down")
        if self._aborted is not None:
            raise WorkflowAbortedError(
                "workflow aborted by an on_failure='FAIL' task"
            ) from self._aborted

    def _lock_deps(self) -> None:
        """Take ``_dep_lock`` (it orders registry write-chains by task
        id), counting a contended acquisition."""
        if not self._dep_lock.acquire(blocking=False):
            self._dep_lock.acquire()
            self._counters.submit_contentions += 1

    def _admit(self, inst: TaskInstance, registered: tuple) -> bool:
        """Dispatch a registered instance: replay it from the checkpoint
        store (its futures resolve to the persisted outputs), cancel it
        under a failed upstream, or run it inline on the sequential
        executor (submission order is topological, so its deps are
        done).  True when it is ready for ``_start`` instead."""
        restored_values, unresolved, upstream_failed = registered
        if restored_values is not None:
            self._restore(inst, restored_values)
        elif upstream_failed is not None:
            self._cancel_pending(inst, upstream_failed.error)
        elif self.executor == "sequential":
            self._execute(inst)
        else:
            return unresolved == 0
        return False

    def _small(self, inst: TaskInstance) -> bool:
        """True when *inst* may run on the thread that submits it: its
        spec's body estimate is known and below ``INLINE_BELOW_S``, the
        body would run in this process, and no ``time_out`` needs the
        watchdog's thread."""
        est = inst.spec.body_estimate
        return (
            est is not None
            and est < INLINE_BELOW_S
            and self._backend is None
            and inst.options.time_out is None
        )

    def _start(self, inst: TaskInstance) -> None:
        """Start a task that is ready at submission (threads executor):
        a small one nothing queued outranks is marked READY and run on
        this thread — same ready row and stamp as a queued one, no push
        and no wakeup; any other is queued."""
        if self._small(inst) and not self._outranked(inst):
            if self._mark_ready(inst):
                self._execute(inst)
        else:
            self._enqueue(inst)

    def _submitting_attempt(self) -> tuple[TaskInstance | None, Any]:
        """Read the calling thread's binding once: the parent attempt of
        a submission made from it and the span the submission parents
        under.  Only a body of this runtime is a parent; an adopted
        thread, another runtime's body or an unbound thread submits at
        top level, under its binding's span if it has one."""
        bound = _tls.bound
        if bound is None:
            return None, None
        if type(bound) is TaskInstance and bound.runtime is self:
            return bound, bound.trace_ctx
        return None, bound.trace_ctx

    def _normalize_call(self, call: Any, index: int | None = None) -> tuple:
        """Normalize one ``submit_many`` item to
        ``(spec, args, kwargs, options, label)``.

        Accepts :class:`~repro.runtime.model.TaskCall` objects and any
        2-3 element sequence ``(task, args[, kwargs])`` — tuple or
        list.  A bad item raises a ``TypeError`` naming the offending
        item's type and its batch *index*, so one malformed entry in a
        10k-call batch is findable.

        ``TaskCall`` is a public dataclass, so a caller that builds
        calls directly may pass a list as ``args`` or reuse and later
        mutate its containers — which must not leak into an
        already-submitted, still-pending task.  Its args are taken as a
        tuple (``tuple()`` of a tuple is the same object, so the
        ``defer`` path pays nothing) and its kwargs dict is copied
        unless empty.
        """
        if isinstance(call, TaskCall):
            kwargs = dict(call.kwargs) if call.kwargs else {}
            return call.spec, tuple(call.args), kwargs, call.options, call.label
        if isinstance(call, (tuple, list)) and 2 <= len(call) <= 3:
            task, args = call[0], tuple(call[1])
            kwargs = dict(call[2]) if len(call) == 3 else {}
            spec = getattr(task, "spec", task)
            if isinstance(spec, TaskSpec):
                return spec, args, kwargs, None, None
        where = "" if index is None else f" at batch index {index}"
        raise TypeError(
            "submit_many() items must be TaskCall objects (task.defer(...)) "
            "or (task, args[, kwargs]) tuples/lists, got "
            f"{type(call).__name__}{where}: {call!r}"
        )

    def _resolve_options_cached(self, spec: TaskSpec, options: TaskOptions | None):
        """``resolve_options`` behind an identity-keyed cache: a flood
        of calls to the same task (same decorator options, same — or
        no — call-site options) resolves once instead of re-merging
        per submission."""
        key = (id(spec.options), id(options))
        hit = self._opts_cache.get(key)
        if hit is not None and hit[0] is spec.options and hit[1] is options:
            return hit[2]
        resolved = resolve_options(spec.options, options)
        if len(self._opts_cache) > 4096:
            # Churning call-site options (a fresh ``.opts(...)`` per
            # call) would otherwise grow the cache without bound.
            self._opts_cache.clear()
        self._opts_cache[key] = (spec.options, options, resolved)
        return resolved

    def _scan_call(
        self, spec: TaskSpec, args: tuple, kwargs: dict
    ) -> tuple[list[int], dict | None, bool]:
        """Collect future dependencies from the call's arguments, tell
        whether the body needs them resolved, and — for tasks with
        declared writes — bind arguments to parameter names for the
        registry pass.

        The future scan is inlined for the dominant flat-argument case
        (futures and scalars passed directly): the deep container scan
        only runs for arguments that are containers.  ``resolve`` is
        False when no argument is a future (of any runtime: another
        runtime's future is no dependency, but the body still gets its
        value) or a container (resolution hands the body a rebuilt
        copy): the body then takes the arguments as submitted.  Pure
        tasks (no INOUT/OUT) defer argument binding entirely
        (``bound=None``) — ``_detect_deps_locked`` binds lazily only
        when the registry has recorded writes that could produce edges.
        """
        rid = self.runtime_id
        future_deps: list[int] = []
        resolve = False
        for value in (*args, *kwargs.values()) if kwargs else args:
            if isinstance(value, Future):
                resolve = True
                if value._runtime_id == rid:
                    future_deps.append(value.task_id)
            elif isinstance(value, (list, tuple, dict)):
                resolve = True
                for fut in scan_futures(value):
                    if fut._runtime_id == rid:
                        future_deps.append(fut.task_id)
        bound = _bind_arguments(spec, args, kwargs) if spec.has_writes else None
        return future_deps, bound, resolve

    def _detect_deps_locked(
        self,
        spec: TaskSpec,
        bound: dict | None,
        future_deps: list[int],
        args: tuple = (),
        kwargs: dict | None = None,
    ) -> tuple[int, set[int]]:
        """Allocate a task id and derive its dependency set (callers
        hold ``_dep_lock``)."""
        task_id = self._next_task_id
        self._next_task_id += 1
        deps: set[int] = set(future_deps)
        if bound is None:
            # Pure task: it records no writes, so with an empty
            # registry (exact under ``_dep_lock`` — every write
            # happens here) the walk cannot add an edge.  This is the
            # fine-grained-workload fast path.
            if self.registry.empty:
                return task_id, deps
            bound = _bind_arguments(spec, args, kwargs or {})
        # dependencies through mutated objects (INOUT/OUT).
        for pname, value in bound.items():
            direction = spec.directions.get(pname, Direction.IN)
            for obj in _identity_candidates(value):
                writer = self.registry.last_writer(obj)
                if writer is not None and writer != task_id:
                    deps.add(writer)
                if direction is not Direction.IN:
                    self.registry.record_write(obj, task_id)
        return task_id, deps

    def _build_instance(
        self,
        spec: TaskSpec,
        args: tuple,
        kwargs: dict,
        deps: set[int],
        parent: TaskInstance | None,
        ctx: Any,
        label: str | None,
        resolved,
        task_id: int,
        resolve: bool,
    ) -> TaskInstance:
        if spec.returns == 1:  # the dominant case, kept allocation-lean
            futures = (Future(task_id, 0, self.runtime_id),)
        else:
            futures = tuple(
                Future(task_id, i, self.runtime_id) for i in range(spec.returns)
            )
        inst = TaskInstance(
            task_id=task_id,
            spec=spec,
            args=args,
            kwargs=kwargs,
            deps=frozenset(deps),
            futures=futures,
            runtime=self,
            parent=parent,
            label=label,
        )
        inst.options = resolved
        inst.resolve_args = resolve
        inst.t_submit = self._now()
        if self.config.collect_trace:
            # Mint this attempt's span as a child of the submitting
            # thread's binding (a task body submitting nested tasks, a
            # service delivery, a streaming chain) — or a fresh root
            # trace when the thread carries no context.
            inst.trace_ctx = _tracectx.child_of(ctx)
        return inst

    def _checkpoint_lookup(self, inst: TaskInstance) -> tuple | None:
        """Phase 3 of submission (sig lock inside): sign *inst* and
        return its persisted outputs, if the store holds them."""
        if self.checkpoint_store is None:
            return None
        signature = self._task_signature(inst.spec, inst.args, inst.kwargs, inst.options)
        if signature is None:
            return None
        inst.signature = signature
        return self.checkpoint_store.get(signature, expect=inst.spec.returns)

    def _register(self, inst: TaskInstance) -> tuple:
        """Phases 3-4 of submission for one call; see
        ``_register_locked``."""
        restored_values = self._checkpoint_lookup(inst)
        with self._state_lock:
            return self._register_locked(inst, restored_values)

    def _register_locked(self, inst: TaskInstance, restored_values: tuple | None) -> tuple:
        """Phase 4 (callers hold ``_state_lock``): enter *inst* in the
        task table, count it unfinished — on its parent attempt, or at
        top level — and, unless it is restored, register it as a child
        of every unresolved dependency.  Returns ``(restored_values,
        unresolved, upstream_failed)`` for ``_admit``, the last a failed
        or cancelled dependency (or None)."""
        task_id = inst.task_id
        self._tasks[task_id] = inst
        self._by_root[task_id] = inst
        parent = inst._parent
        if parent is None:
            self._unfinished_top += 1
        else:
            parent._pending += 1
        self._unfinished_total += 1
        unresolved = 0
        upstream_failed = None
        if restored_values is None:
            by_root = self._by_root
            children = self._children
            for dep in inst.deps:
                dep_inst = by_root.get(dep)
                # A dep missing from ``_by_root`` allocated its id
                # (phase 2 of its own submission) but has not registered
                # yet; it cannot have completed, so it is unresolved and
                # its completion will find us in ``_children``.
                if dep_inst is None or dep_inst.state not in TERMINAL_STATES:
                    children[dep].append(inst)
                    unresolved += 1
                elif dep_inst.state in (FAILED, CANCELLED):
                    upstream_failed = dep_inst
        inst._remaining = unresolved
        return restored_values, unresolved, upstream_failed

    def _returns_of(self, inst: TaskInstance) -> Any:
        if inst.spec.returns == 0:
            return None
        if inst.spec.returns == 1:
            return inst.futures[0]
        return inst.futures

    # ------------------------------------------------------------------
    # checkpoint/restart
    # ------------------------------------------------------------------
    def _task_signature(self, spec, args, kwargs, resolved) -> str | None:
        """Deterministic signature of this invocation, or ``None`` when
        it is not checkpointable: opted out, impure (INOUT/OUT writes —
        replaying the result would skip the side effect), no return
        values, or an argument that cannot be fingerprinted.

        Hashing (function identity + argument fingerprints) runs
        outside every lock — it is the expensive part — and only the
        occurrence counter is taken under ``_sig_lock``: it makes
        repeated identical calls distinct ("call lineage"), which is
        deterministic for the sequential executor and for any program
        whose submission order is fixed.
        """
        if not resolved.checkpoint or spec.returns == 0 or spec.has_writes:
            return None
        with self._sig_lock:
            ident = self._identities.get(id(spec))
        if ident is None:
            ident = ckpt.function_identity(spec.func, name=spec.name)
            with self._sig_lock:
                self._identities[id(spec)] = ident
        try:
            base = ckpt.task_signature(ident, args, kwargs, resolve=self._future_key)
        except ckpt.UnfingerprintableError:
            return None
        with self._sig_lock:
            occurrence = self._sig_counts[base]
            self._sig_counts[base] += 1
        return f"{base}#{occurrence}"

    def _future_key(self, fut: Future) -> str:
        """Stable key of a future argument: producer signature + index.

        Lineage instead of value — the producer's output need not exist
        (nor ever be recomputed) for a downstream task to be matched
        against the store on resume.
        """
        if fut._runtime_id != self.runtime_id:
            raise ckpt.UnfingerprintableError("future from another runtime")
        sig = self._by_root[fut.task_id].signature
        if sig is None:
            raise ckpt.UnfingerprintableError(
                "future produced by a non-checkpointable task"
            )
        return f"{sig}@{fut.index}"

    def _restore(self, inst: TaskInstance, values: tuple) -> None:
        """Complete *inst* from checkpointed values without running it."""
        t = self._now()
        inst.t_end = t
        self._record(inst, t, RESTORED, out_bytes=estimate_nbytes(values))
        for fut, value in zip(inst.futures, values):
            fut._set_result(value)
        self._complete(inst, DONE)
        _ckpt_logger.debug("restored %s#%d from checkpoint", inst.name, inst.task_id)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _mark_ready(self, inst: TaskInstance) -> bool:
        """Move *inst* to READY unless an abort cancelled it since its
        last dependency completed (then it must not be queued)."""
        prev = inst.try_ready()
        if prev is None:
            return False
        inst.t_ready = self._now()
        self._check_transition(inst, prev, READY)
        return True

    def _enqueue(self, *insts: TaskInstance) -> None:
        """Mark *insts* READY and queue them (``_push``)."""
        self._push([inst for inst in insts if self._mark_ready(inst)])

    def _push(self, marked: list[TaskInstance]) -> None:
        """Queue READY *marked* under one condition acquisition and wake
        up to one parked thread per task with a single grouped notify:
        any woken thread — worker or helping waiter — consumes a task
        (or passes the baton on exit, see ``_help_until``)."""
        if not marked:
            return
        with self._cond:
            for inst in marked:
                # An abort may have cancelled it since ``_mark_ready``;
                # the abort sweeps the queue under this lock, so the
                # check keeps a cancelled task off it either way.
                if inst.state == READY:
                    heapq.heappush(self._ready, (-_priority(inst), self._ready_seq, inst))
                    self._ready_seq += 1
            self._counters.notifies += len(marked)
            self._wake(len(marked))

    def _wake(self, n: int) -> None:
        """Wake up to *n* parked workers and one parked waiter, which
        helps (callers hold ``_cond``)."""
        self._cond.notify(n)
        if self._waiting:
            self._waiter_cond.notify()

    def _outranked(self, inst: TaskInstance) -> bool:
        """True when a queued task outranks *inst*'s priority.  An empty
        heap outranks nothing, so the common test takes no lock."""
        if not self._ready:
            return False
        with self._cond:
            return bool(self._ready) and self._ready[0][0] < -_priority(inst)

    def _keep_one(self, released: list[TaskInstance]) -> TaskInstance | None:
        """Take out of *released* the child the completing thread runs
        next — the first of the highest priority — and mark it READY.
        None when a queued task outranks it: then every child queues."""
        kept = max(released, key=_priority)
        if self._outranked(kept):
            return None
        released.remove(kept)
        return kept if self._mark_ready(kept) else None

    def _broadcast(self) -> None:
        """Wake every parked ``_help_until`` waiter (parked workers wait
        for work or shutdown, which notify them on their own).  Issued
        after any state change a waiter predicate can depend on
        (completion, cancellation, kill, abort).  The count is read
        unlocked: a waiter counts itself before its locked re-check and
        statements run in one interpreter-lock order, so a 0 here means
        that re-check sees this change; a counted waiter holds the lock
        until it waits."""
        if self._waiting:
            with self._cond:
                self._counters.broadcasts += 1
                self._waiter_cond.notify_all()

    def _worker_loop(self) -> None:
        name = threading.current_thread().name
        while True:
            with self._cond:
                # Event-driven: park with no timeout.  Every producer
                # of work notifies; shutdown broadcasts.  A worker only
                # exits once the queue is drained after shutdown.
                while not self._ready and not self._shutdown:
                    self._counters.worker_parks += 1
                    self._cond.wait()
                if not self._ready:
                    return
                inst = heapq.heappop(self._ready)[2]
            try:
                # Run the child each completion keeps (``_complete``)
                # next, in this loop: no heap push, no wakeup.  An
                # ``_execute`` that raises returns no child, so nothing
                # kept is left behind.
                while inst is not None:
                    inst = self._execute(inst, name, keep=True)
            except BaseException as exc:  # noqa: BLE001
                # _execute already routed kills/BaseExceptions through
                # _kill; this is belt-and-braces so a worker can never
                # die silently and strand parked waiters.
                self._kill(exc)
                return

    def _kill(self, error: BaseException) -> None:
        """Record a workflow kill and wake every parked thread so
        ``wait_on``/``barrier`` re-raise instead of hanging.  The first
        kill wins; later ones only re-broadcast."""
        first = False
        with self._state_lock:
            if self._killed is None:
                self._killed = error
                first = True
        self._broadcast()
        self._notify_interrupts()
        if first:
            self._dump_flight_recorder(f"kill: {error!r}")

    def _dump_flight_recorder(self, reason: str) -> None:
        """Best-effort dump of the crash flight recorder — never lets
        a dump failure mask the kill/abort being handled."""
        rec = self.flight_recorder
        if rec is None:
            return
        try:
            path = rec.dump(reason=reason)
        except Exception as exc:  # noqa: BLE001 - diagnostics must not raise
            _logger.warning("flight recorder dump failed: %r", exc)
        else:
            _logger.warning("flight recorder dumped reason=%r path=%s", reason, path)

    # ------------------------------------------------------------------
    # external waiters (streaming integration)
    # ------------------------------------------------------------------
    def add_interrupt(self, fn: Callable[[], None]) -> None:
        """Register an external wakeup callback.

        The scheduler condition only reaches threads parked *on the
        scheduler*; a thread blocked on a foreign condition — a
        bounded stream's not-full/not-empty, a long-lived stage's own
        queue — registers a notifier here and re-checks
        :meth:`interruption` on every wakeup.  Callbacks fire after
        kill, abort and shutdown, outside every runtime lock, and must
        be cheap and idempotent (typically ``notify_all`` on the
        foreign condition)."""
        with self._state_lock:
            self._interrupts.add(fn)

    def remove_interrupt(self, fn: Callable[[], None]) -> None:
        with self._state_lock:
            self._interrupts.discard(fn)

    def _notify_interrupts(self) -> None:
        if not self._interrupts:
            return
        with self._state_lock:
            fns = list(self._interrupts)
        for fn in fns:
            try:
                fn()
            except Exception:  # noqa: BLE001 - a waiter bug must not wedge the engine
                _logger.exception("interrupt callback failed")

    def add_drain_hook(self, fn: Callable[[], None]) -> None:
        """Register a callback run at the start of
        ``shutdown(wait=True)``, before the runtime waits for the
        unfinished count to reach zero.  Stream graphs use it to stop
        their sources and join their stages so nothing keeps feeding
        the runtime while it drains."""
        with self._state_lock:
            self._drain_hooks.append(fn)

    def remove_drain_hook(self, fn: Callable[[], None]) -> None:
        with self._state_lock:
            if fn in self._drain_hooks:
                self._drain_hooks.remove(fn)

    def _snapshot_drain_hooks(self) -> list[Callable[[], None]]:
        with self._state_lock:
            return list(self._drain_hooks)

    def interruption(self) -> BaseException | None:
        """The exception an externally-parked thread should raise, or
        None while the runtime is healthy.  Lock-free reads: each flag
        is written once before its notification, so a waiter woken by
        an interrupt callback always observes the cause."""
        killed = self._killed
        if killed is not None:
            return killed
        if self._aborted is not None:
            return WorkflowAbortedError(
                "workflow aborted while blocked on a stream"
            )
        if self._shutdown:
            return RuntimeStateError("runtime shut down while blocked on a stream")
        return None

    def bind_current_thread(self, trace_ctx: Any = None) -> Any:
        """Adopt the calling (externally created) thread into this
        runtime: ``@task`` calls made from it submit here at top level,
        as children of *trace_ctx* when given, and ``wait_on``/``barrier``
        resolve against this runtime.  Returns the previous binding for
        :meth:`release_current_thread` to restore.  Stream chains and
        the queue service's claim thread run on their own threads and
        use this to interoperate with ordinary task futures."""
        prev = _tls.bound
        _tls.bound = Binding(self, 0, trace_ctx)
        return prev

    def release_current_thread(self, prev: Any = None) -> None:
        """Undo :meth:`bind_current_thread`."""
        _tls.bound = prev

    def _record_violation(self, message: str) -> None:
        """Log and remember a broken runtime invariant (negative pending
        count, illegal state transition).  Violations never raise on
        the hot path; ``check_invariants()`` surfaces them, the
        randomized runtime tests fail on any, and every wait not yet
        satisfied raises on one (``_help_until``)."""
        with self._violations_lock:
            self._violations.append(message)
        _logger.warning("runtime invariant violated: %s runtime=%s", message, self.name)

    def _set_state(self, inst: TaskInstance, new_state: str) -> None:
        """Transition *inst*, validating against the lifecycle state
        machine."""
        self._check_transition(inst, inst.state, new_state)
        inst.state = new_state

    def _check_transition(
        self,
        inst: TaskInstance,
        old: str,
        new_state: str,
        table: dict[str, frozenset[str]] = _ALLOWED,
    ) -> None:
        if new_state not in table.get(old, ()):
            self._record_violation(
                f"illegal transition {old} -> {new_state} "
                f"for {inst.name}#{inst.task_id}"
            )

    def _help_until(self, predicate: Callable[[], bool]) -> None:
        """Run ready tasks (if any) until *predicate* holds.

        Called from any thread that needs to block on runtime progress;
        turning waiters into workers keeps nested graphs deadlock-free.
        When nothing is runnable the waiter parks on the scheduler
        condition with **no timeout**: completions broadcast, enqueues
        notify, and a kill/abort/shutdown broadcast always reaches a
        parked thread, so a timeout safety net is unnecessary.
        ``stats()["idle_wakeups"]`` counts the parks.  Once an invariant
        violation is recorded, a count may never drain: a wait whose
        predicate is still false raises :class:`RuntimeStateError`
        carrying the violations instead of parking.

        Waiters park on ``_waiter_cond`` (``_cond``'s lock), so the
        broadcast of a completion wakes no idle worker.  A parked waiter
        may absorb a push's ``notify`` and then exit because its own
        predicate turned true; the ``finally`` clause re-notifies if
        work is still queued (the baton hand-off) so that wakeup is
        never lost to the other parked threads.

        A child kept by a completion this waiter ran (``_complete``)
        runs next, once the predicate, kill and violation checks at the
        top of the loop pass again.  A wait that ends first — its
        predicate holds, or it raises — queues the child instead, so
        ``wait_on(mid)`` never runs the rest of a chain.
        """
        parked = False
        name = None
        kept = None
        try:
            while not predicate():
                if self._killed is not None:
                    raise self._killed
                if self._violations:
                    # A broken count may never reach what the predicate
                    # waits for: raise instead of parking forever.
                    raise RuntimeStateError(
                        "runtime invariant violated: " + "; ".join(list(self._violations))
                    )
                inst, kept = kept, None
                if inst is None:
                    with self._cond:
                        if self._ready:
                            inst = heapq.heappop(self._ready)[2]
                        else:
                            # Counted first, then re-checked under the
                            # lock: any notifier changes state before it
                            # reads the count (see _broadcast) or
                            # notifies under this same lock, so passing
                            # these checks and then waiting cannot miss
                            # a wakeup.
                            self._waiting += 1
                            try:
                                if (
                                    not predicate()
                                    and self._killed is None
                                    and not self._violations
                                ):
                                    if self._shutdown:
                                        raise RuntimeStateError(
                                            "runtime shut down while waiting for tasks"
                                        )
                                    parked = True
                                    self._counters.idle_wakeups += 1
                                    self._waiter_cond.wait()
                            finally:
                                self._waiting -= 1
                if inst is not None:
                    if name is None:
                        name = threading.current_thread().name
                    kept = self._execute(inst, name, keep=True)
        finally:
            if kept is not None:
                self._push([kept])
            if parked:
                with self._cond:
                    if self._ready:
                        self._counters.notifies += 1
                        self._wake(1)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _run_body(self, inst: TaskInstance):
        """Resolve inputs, run the task body (here, or through the
        process backend) and wait for nested children.  Runs in the
        scheduling thread (or the watchdog-supervised body thread for
        timed tasks), bound to *inst*."""
        if not inst._abandoned:
            # The span from here to t_end is attributed to the body:
            # argument resolution, the body call and nested children.
            inst.t_body_start = self._now()
        if inst.resolve_args:
            args = resolve_futures(inst.args)
            kwargs = resolve_futures(inst.kwargs)
        else:
            args, kwargs = inst.args, inst.kwargs
        backend = self._backend
        store = self._store
        if store is not None and (backend is None or not backend.handles_refs):
            # Futures (or direct arguments) may resolve to ObjectRefs;
            # an in-process body needs the concrete arrays.
            args = store.deref(args)
            kwargs = store.deref(kwargs)
        if backend is None:
            # This thread is bound to *inst*: the body reads
            # ``current_attempt()`` from there.
            result, pid, dinfo = inst.spec.func(*args, **kwargs), _backends._pid, None
        else:
            result, pid, dinfo = backend.run(inst.spec, args, kwargs, attempt=inst.attempt)
        if not inst._abandoned:  # else already retired: its record is read-only
            inst.worker_pid = pid
            if dinfo:
                # Per-call data-plane accounting (bytes freshly mapped into
                # the worker / pickle bytes avoided), for the trace record.
                inst.bytes_moved = dinfo.get("bytes_moved", 0)
                inst.bytes_saved = dinfo.get("bytes_saved", 0)
        # Nested tasks must complete before the parent is done.  The
        # unlocked count read is exact for the no-children case: only
        # this thread (bound to *inst*) submits children of *inst*, so a
        # zero cannot turn nonzero after the body returned.
        if inst._pending:
            self._help_until(lambda: inst._pending == 0)
        if isinstance(result, (Future, list, tuple, dict)):
            result = resolve_futures(result)
        return args, kwargs, _split_results(inst, result)

    def _run_with_watchdog(self, inst: TaskInstance, time_out: float):
        """Run the body in a helper thread and watch the deadline.

        Python threads cannot be killed, so on timeout the body thread
        is *abandoned* (daemonised, its eventual result discarded) and
        the task fails with :class:`TaskTimeoutError` — which then goes
        through the normal ``on_failure``/retry machinery."""
        outcome: dict[str, Any] = {}
        finished = threading.Event()

        def body() -> None:
            _tls.bound = inst
            try:
                outcome["value"] = self._run_body(inst)
            except BaseException as exc:  # noqa: BLE001 - relayed below
                outcome["error"] = exc
            finally:
                finished.set()

        thread = threading.Thread(
            target=body, name=f"{self.name}-task-{inst.task_id}-body", daemon=True
        )
        thread.start()
        if not finished.wait(time_out):
            inst._abandoned = True
            raise TaskTimeoutError(inst.name, inst.task_id, time_out)
        if "error" in outcome:
            raise outcome["error"]
        return outcome["value"]

    def _execute(
        self, inst: TaskInstance, worker_name: str | None = None, keep: bool = False
    ) -> TaskInstance | None:
        """Claim and run *inst* on the calling thread, named
        *worker_name* (looked up when the caller does not know it).
        With *keep*, the caller runs what this returns next: the child
        a successful completion kept for this thread (``_complete``)."""
        prev_state = inst.claim_run()
        if prev_state is None:
            return None  # cancelled (or finalized) before it could start
        # Strict table, no self-loop: claiming an instance that is
        # already RUNNING runs its body twice.
        self._check_transition(inst, prev_state, RUNNING, VALID_TRANSITIONS)
        outer = _tls.bound
        time_out = inst.options.time_out if inst.options is not None else None
        t_start = self._now()
        inst.t_dispatch = t_start
        inst.worker_name = worker_name or threading.current_thread().name
        try:
            if time_out is not None and self.executor == "threads":
                args, kwargs, results = self._run_with_watchdog(inst, time_out)
            else:
                _tls.bound = inst
                try:
                    args, kwargs, results = self._run_body(inst)
                finally:
                    _tls.bound = outer
                if time_out is not None:
                    # Sequential executor cannot preempt: detect the
                    # overrun after the fact (documented best effort).
                    elapsed = self._now() - t_start
                    if elapsed > time_out:
                        raise TaskTimeoutError(inst.name, inst.task_id, time_out)
        except Exception as exc:  # noqa: BLE001 - routed to failure policies
            t_end = self._now()
            self._fail(inst, exc, t_start, t_end)
            return None
        except BaseException as exc:  # noqa: BLE001
            # A body-declared process death (``WorkflowKilledError``),
            # KeyboardInterrupt & friends escaping a task body: fail
            # the task terminally (retrying an interrupt would be
            # wrong), cancel its dependents, and kill the workflow so
            # every waiter re-raises instead of hanging on a dead worker
            # thread.  The task's own futures fail first, so a waiter
            # woken by the kill can tell the body that raised from the
            # tasks it stranded.
            t_end = self._now()
            error = TaskExecutionError(inst.name, inst.task_id, exc)
            inst.error = error
            inst.t_end = t_end
            self._record(inst, t_start, "failed", error=exc)
            for fut in inst.futures:
                fut._set_error(error)
            self._kill(exc)
            self._complete(inst, FAILED)
            raise
        t_end = self._now()
        inst.t_end = t_end
        if self._backend is None:
            inst.spec.observe_body(t_end - inst.t_body_start)

        # Recorded before it is published, as on every failure path: a
        # caller woken by these futures finds the attempt in ``trace()``.
        collect = self.config.collect_trace
        self._record(
            inst,
            t_start,
            "done",
            in_bytes=payload_nbytes(args, kwargs) if collect else 0,
            out_bytes=payload_nbytes(results) if collect else 0,
        )
        for fut, value in zip(inst.futures, results):
            fut._set_result(value)

        if inst.signature is not None and self.checkpoint_store is not None:
            try:
                to_write = results
                if self._store is not None and scan_refs(results):
                    # Checkpoints must outlive the store: persist the
                    # arrays, not the shared-memory handles.
                    to_write = self._store.deref(results)
                self.checkpoint_store.put(inst.signature, inst.name, to_write)
                with self._state_lock:
                    self._n_checkpoint_writes += 1
            except Exception as exc:  # noqa: BLE001 - checkpointing is best effort
                _ckpt_logger.warning(
                    "checkpoint write failed for %s#%d: %s",
                    inst.name,
                    inst.task_id,
                    exc,
                )
        return self._complete(inst, DONE, keep)

    # ------------------------------------------------------------------
    # failure management
    # ------------------------------------------------------------------
    def _record(
        self,
        inst: TaskInstance,
        t_start: float,
        status: str,
        error: BaseException | None = None,
        in_bytes: int = 0,
        out_bytes: int = 0,
    ) -> None:
        """Retire *inst* (whose ``t_end`` the caller has set) into the
        trace: stamp on the instance what only the record knows.  Values
        only — never the arguments or results."""
        # The record's span is the body run; when the body never
        # started (resolution/fault failure, restore) fall back to the
        # caller's stamp (dispatch time) so duration stays well-formed.
        inst.t_start = inst.t_body_start if inst.t_body_start is not None else t_start
        inst.in_bytes = in_bytes
        inst.out_bytes = out_bytes
        if error is not None:
            inst.error_repr = repr(error)
        # Last: ``trace()`` reads an attempt once it carries a status, and
        # every caller publishes the futures only after this returns.
        inst.status = status

    def _fail(
        self, inst: TaskInstance, exc: BaseException, t_start: float, t_end: float
    ) -> None:
        if isinstance(exc, TaskExecutionError):
            error = exc
        else:
            error = TaskExecutionError(inst.name, inst.task_id, exc)
        inst.error = error
        inst.t_end = t_end
        # The frames under the exception (``_run_body``, the backend
        # call, the body) hold the resolved arguments: the error keeps
        # its traceback lines, not their locals.
        traceback.clear_frames(exc.__traceback__)
        # Exceptions transported back from (or raised about) a worker
        # process carry the executing pid; attribute the attempt to it.
        remote_pid = getattr(exc, "_repro_worker_pid", None)
        if remote_pid is not None:
            inst.worker_pid = remote_pid
        # A worker exception still moved/attached input bytes before the
        # body raised; stamp them so trace totals reconcile with the
        # backend's cumulative counters even across failed attempts.
        dinfo = getattr(exc, "_repro_dinfo", None)
        if dinfo:
            inst.bytes_moved = dinfo.get("bytes_moved", 0)
            inst.bytes_saved = dinfo.get("bytes_saved", 0)
        if isinstance(exc, TaskTimeoutError):
            with self._state_lock:
                self._n_timeouts += 1

        options = inst.options
        can_retry = (
            options is not None
            and inst.attempt < options.max_retries
            and not self._shutdown
            and self._aborted is None
            and self._killed is None
        )
        if can_retry:
            self._record(inst, t_start, "failed", error=exc)
            self._resubmit(inst)
            return

        policy = options.on_failure if options is not None else None
        if policy == IGNORE:
            self._record(inst, t_start, "ignored", error=exc)
            for fut, value in zip(
                inst.futures, split_default(options.failure_default, inst.spec.returns)
            ):
                fut._set_result(value)
            self._complete(inst, IGNORED)
            return

        self._record(inst, t_start, "failed", error=exc)
        for fut in inst.futures:
            fut._set_error(error)
        # Abort before retiring: a barrier woken by this completion must
        # already see the abort, as it sees a kill.
        aborted = policy == FAIL and self._abort(error)
        self._complete(inst, FAILED)
        if aborted:
            self._dump_flight_recorder(f"abort: {error!r}")

    def _resubmit(self, inst: TaskInstance) -> None:
        """Re-enqueue a failed attempt as a fresh DAG node.

        The new instance reuses the original futures (dependents keep
        their handles), inherits the options, depends on the failed
        attempt (so traces and the simulator see the lost time), and
        adopts the dependents that were waiting on the failed node.
        """
        options = inst.options
        with self._state_lock:
            new_id = self._next_task_id
            self._next_task_id += 1
            t_retry = self._now()
            new = TaskInstance(
                task_id=new_id,
                spec=inst.spec,
                args=inst.args,
                kwargs=inst.kwargs,
                deps=frozenset(inst.deps | {inst.task_id}),
                futures=inst.futures,
                runtime=self,
                parent=inst._parent,
                label=inst.label,
            )
            new.options = options
            new.resolve_args = inst.resolve_args
            new.t_submit = t_retry
            new.attempt = inst.attempt + 1
            new.retry_of = inst.task_id
            new.root_id = inst.root_id
            # A successful retry checkpoints under the same signature.
            new.signature = inst.signature
            if inst.trace_ctx is not None:
                # Same trace, fresh span, parented under the failed
                # attempt — the span tree shows the retry chain just
                # as the DAG's retry edge does.
                new.trace_ctx = inst.trace_ctx.child()
            new._remaining = 0  # the failed attempt is complete, deps were done
            self._tasks[new_id] = new
            # Futures (and therefore dependents) reference the first
            # attempt's id, so the root entry must track the latest
            # attempt: new dependents submitted mid-retry then see a
            # live (not failed) producer.  ``_tasks`` keeps the failed
            # attempt under its own id — each attempt stays a distinct
            # instance, so ``stats()`` counts it exactly once.  Child
            # bookkeeping is keyed by root id, so no hand-over needed.
            self._by_root[new.root_id] = new
            # Close out the failed attempt (dependents follow the root
            # id, so they transparently wait for the new attempt).  The
            # new attempt takes its place in the unfinished and pending
            # counts, so neither moves.
            inst.try_finalize()
            self._set_state(inst, FAILED)
            # The new attempt holds the same payload; a retired attempt
            # keeps its scalars only.
            inst.args = inst.kwargs = None

        delay = retry_delay(
            options.retry_backoff,
            new.attempt,
            task_name=inst.name,
            root_id=new.root_id,
            seed=JITTER_SEED,
            cap=RETRY_BACKOFF_CAP,
        )
        if self.executor == "sequential":
            if delay > 0:
                time.sleep(delay)
            self._execute(new)
        elif delay <= 0:
            self._enqueue(new)
        else:
            def fire() -> None:
                with self._state_lock:
                    self._timers.discard(timer)
                if self._shutdown or self._killed is not None or self._aborted is not None:
                    self._cancel_pending(new)
                else:
                    self._enqueue(new)

            timer = threading.Timer(delay, fire)
            timer.daemon = True
            with self._state_lock:
                self._timers.add(timer)
            timer.start()

    def _abort(self, error: TaskExecutionError) -> bool:
        """``on_failure="FAIL"``: stop the workflow — cancel every task
        that has not started yet, each chained from *error*; running
        tasks finish undisturbed.  ``try_cancel`` (inside
        ``_cancel_pending``) arbitrates the race against workers picking
        victims up concurrently: exactly one side wins per task.  False
        when the workflow was already aborted."""
        with self._state_lock:
            if self._aborted is not None:
                return False
            self._aborted = error
            victims = [i for i in self._tasks.values() if i.state in (PENDING, READY)]
        for inst in victims:
            self._cancel_pending(inst, error)
        with self._cond:
            # Cancelled victims leave the queue with the abort; a racing
            # enqueue finds them cancelled (``_enqueue``).
            self._ready[:] = [entry for entry in self._ready if entry[2].state == READY]
            heapq.heapify(self._ready)
        self._broadcast()
        self._notify_interrupts()
        return True

    def _complete(
        self, inst: TaskInstance, state: str, keep: bool = False
    ) -> TaskInstance | None:
        """Retire *inst* (whose ``t_end`` the caller has set) into
        *state* and release its dependents.

        With *keep* — passed only by the thread that ran the body, which
        runs what this returns next — one released child skips the
        ready queue and its wakeup (``_keep_one``); the rest queue as
        usual, so fan-out stays parallel."""
        if not inst.try_finalize():
            return None
        self._set_state(inst, state)
        if self._progress is not None:
            self._progress.tick()
        with self._state_lock:
            children = self._children.pop(inst.root_id, [])
            self._retire_locked(inst)
        # Retired: the body resolved its arguments when it started and
        # no view reads them, so the payload is released here, not at
        # shutdown.
        inst.args = inst.kwargs = None
        failure = state in (FAILED, CANCELLED)
        released: list[TaskInstance] = []
        for child in children:
            if failure:
                # Propagate: the child can never run.
                self._cancel_pending(child, inst.error)
            elif child.dep_completed() and child.state == PENDING:
                released.append(child)
        kept = self._keep_one(released) if keep and released else None
        self._enqueue(*released)
        # Wake every waiter whose predicate (futures done, pending
        # count drained, unfinished == 0) may have just turned true.  The
        # state changes above happened before this broadcast, and
        # waiters re-check under the condition before parking, so the
        # wakeup cannot be lost.
        self._broadcast()
        return kept

    def _cancel_pending(
        self, inst: TaskInstance, cause: TaskExecutionError | None = None
    ) -> None:
        """Cancel *inst* and, transitively, every dependent waiting on
        it.  Iterative worklist (failure chains can be deep); each node
        is claimed via ``try_cancel`` so the bookkeeping runs exactly
        once even when racing a worker or a second cancellation, and a
        single broadcast at the end wakes waiters parked on any of the
        now-cancelled futures or pending counts.  *cause* is the error of the
        failed attempt that dooms them all (None for a shutdown
        cancellation): every cancelled node keeps it as its
        ``error`` and its futures raise a ``CancelledTaskError``
        chained from it."""
        worklist = [inst]
        cancelled_any = False
        while worklist:
            cur = worklist.pop()
            prev = cur.try_cancel()
            if prev is None:
                continue  # already running or finalized: not ours
            self._check_transition(cur, prev, CANCELLED)
            cancelled_any = True
            cur.t_end = self._now()
            cur.error = cause
            for fut in cur.futures:
                fut._cancel(cause)
            with self._state_lock:
                children = self._children.pop(cur.root_id, [])
                self._retire_locked(cur)
            cur.args = cur.kwargs = None
            worklist.extend(children)
        if cancelled_any:
            self._broadcast()

    def _retire_locked(self, inst: TaskInstance) -> None:
        """Uncount a retired *inst* (callers hold ``_state_lock``): from
        the unfinished total and from its parent's pending count, or the
        top-level one."""
        self._unfinished_total -= 1
        parent = inst._parent
        if parent is None:
            self._unfinished_top -= 1
            negative = self._unfinished_top < 0
        else:
            parent._pending -= 1
            negative = parent._pending < 0
        if negative:
            # A task was retired more often than submitted: double
            # completion bookkeeping.  Recorded instead of raised — the
            # randomized runtime tests turn it into a hard failure.
            self._record_violation(f"pending count of parent={inst.parent_id} went negative")

    # ------------------------------------------------------------------
    # synchronisation & introspection
    # ------------------------------------------------------------------
    def wait_on(self, obj: Any) -> Any:
        """Synchronise futures in *obj* (deeply) into concrete values.
        Values that live in the object store come back as read-only
        zero-copy views (:meth:`get` with ``copy=True`` returns
        independent arrays)."""
        return self._gather(obj)

    def _gather(self, obj: Any, copy: bool = False) -> Any:
        futures = scan_futures(obj)
        if futures:
            self._help_until(_all_done(futures))
        killed = None
        try:
            out = resolve_futures(obj)
        except (TaskExecutionError, CancelledTaskError):
            # What a kill failed or cancelled raises the kill, as a
            # barrier does, whichever a woken waiter saw first.
            killed = self._killed
            if killed is None:
                raise
        if killed is not None:
            raise killed
        if self._store is not None and scan_refs(out):
            out = self._store.deref(out, copy=copy)
        return out

    def barrier(self) -> None:
        """Wait until every task submitted from the calling context is
        done: inside a body, that body's nested tasks; anywhere else,
        the top-level ones.  Raises :class:`WorkflowAbortedError` if an
        ``on_failure="FAIL"`` task aborted the workflow meanwhile, and
        the killing exception if the runtime was killed."""
        parent, _ = self._submitting_attempt()
        if parent is None:
            self._help_until(lambda: self._unfinished_top == 0)
        else:
            self._help_until(lambda: parent._pending == 0)
        if self._killed is not None:
            # ``_help_until`` tests its predicate first, so a count that
            # had already drained when the kill landed returns normally.
            raise self._killed
        if self._aborted is not None:
            raise WorkflowAbortedError(
                "workflow aborted by an on_failure='FAIL' task"
            ) from self._aborted

    def _attempts(self) -> list[TaskInstance]:
        """Every attempt registered so far, in registration order — the
        snapshot each read-side view is shaped from."""
        # No runtime lock: the flight recorder dumps through here from a
        # signal handler or a watchdog, and the black box must not wait
        # on a runtime wedged with ``_state_lock`` held.  Copying a
        # dict's values is one C call, atomic under the interpreter
        # lock, and attempts are complete before they enter the table.
        return list(self._tasks.values())

    def trace(self) -> Trace:
        """Trace of every task attempt retired so far (cancelled
        attempts never ran and have no record).  Each attempt is shaped
        into its :class:`TaskRecord` by the first read that finds it
        retired and reused by later reads; a read during a run sees the
        attempts retired before it."""
        records = []
        if self.config.collect_trace:
            for inst in self._attempts():
                if inst.status is None:
                    continue
                rec = inst._trace_record
                if rec is None:
                    rec = inst._trace_record = _shape_record(inst)
                records.append(rec)
        return Trace(records)

    @property
    def graph(self) -> TaskGraph:
        """The dependency graph of every attempt submitted so far, built
        from the task table on each access — hold it in a variable when
        asking it more than one question.  A node carries ``state`` once
        its attempt is terminal (``"restored"`` for a replayed one)."""
        nodes: dict[int, dict] = {}
        edges: list[tuple] = []
        for inst in self._attempts():
            task_id = inst.task_id
            constraints = inst.spec.constraints
            attrs = nodes[task_id] = {
                "name": inst.name,
                "parent": inst.parent_id,
                "computing_units": constraints.computing_units,
                "gpus": constraints.gpus,
            }
            state = inst.state
            if state in TERMINAL_STATES:
                if inst.status == RESTORED:
                    attrs.update(state=RESTORED, restored=True)
                else:
                    attrs["state"] = state
            prev = inst.retry_of
            if prev is None:
                edges.extend([(dep, task_id) for dep in inst.deps])
            else:
                # A resubmission hangs off the failed attempt alone.
                attrs.update(attempt=inst.attempt, retry_of=prev)
                nodes[prev]["retried"] = True
                edges.append((prev, task_id, {"kind": "retry"}))
        return TaskGraph(nodes, edges)

    @property
    def aborted(self) -> BaseException | None:
        """The error that aborted the workflow, if any."""
        return self._aborted

    def stats(self) -> dict:
        """Live snapshot: task counts by state and by name, queue depth,
        pool configuration, failure-management counters and scheduler
        telemetry — the runtime's monitoring surface.

        ``by_state`` counts every *attempt* exactly once: a task that
        failed once and succeeded on retry contributes one ``failed``
        and one ``done`` (``_tasks`` holds each attempt under its own
        id; the root alias lives in ``_by_root``, so nothing is counted
        twice and no failed attempt is shadowed).
        """
        with self._state_lock:
            by_state: dict[str, int] = {}
            by_name: dict[str, int] = {}
            n_edges = retries = restored = 0
            for inst in self._tasks.values():
                by_state[inst.state] = by_state.get(inst.state, 0) + 1
                by_name[inst.name] = by_name.get(inst.name, 0) + 1
                if inst.retry_of is None:
                    n_edges += len(inst.deps)
                else:
                    # as ``graph`` draws them: a retry hangs off one edge
                    n_edges += 1
                    retries += 1
                if inst.status == RESTORED:
                    restored += 1
            n_tasks = len(self._tasks)
            unfinished = self._unfinished_total
            timeouts = self._n_timeouts
            checkpoint_writes = self._n_checkpoint_writes
        with self._cond:
            scheduler = self._counters.snapshot()
            ready_depth = len(self._ready)
        with self._violations_lock:
            violations = len(self._violations)
        return {
            "executor": self.executor,
            "backend": self.backend_name,
            "backend_stats": (
                self._backend.stats() if self._backend is not None else {"backend": "threads"}
            ),
            "max_workers": self.max_workers,
            "n_tasks": n_tasks,
            "n_edges": n_edges,
            "by_state": by_state,
            "by_name": by_name,
            "ready_queue": ready_depth,
            "unfinished": unfinished,
            "retries": retries,
            "ignored_failures": by_state.get(IGNORED, 0),
            "timeouts": timeouts,
            "restored": restored,
            "checkpoint_writes": checkpoint_writes,
            "checkpointing": self.checkpoint_store is not None,
            "idle_wakeups": scheduler["idle_wakeups"],
            "scheduler": scheduler,
            "invariant_violations": violations,
            "aborted": self._aborted is not None,
            "trace_enabled": self.config.collect_trace,
            "store_mode": self.config.store,
            "store": self._store.stats() if self._store is not None else None,
        }

    def check_invariants(self, quiesced: bool = False) -> list[str]:
        """Recorded invariant violations, plus — with ``quiesced=True``,
        for a runtime known to be idle — structural checks: the ready
        queue must be empty, no task may be mid-flight, and the
        unfinished count must be zero.  Returns problem descriptions
        (empty list = healthy); the randomized runtime tests fail on any."""
        with self._violations_lock:
            problems = list(self._violations)
        if quiesced:
            with self._state_lock:
                unfinished = self._unfinished_total
                instances = list(self._tasks.values())
            if unfinished != 0:
                problems.append(f"quiesced runtime has unfinished count {unfinished}")
            with self._cond:
                depth = len(self._ready)
            if depth:
                problems.append(f"quiesced runtime has {depth} tasks still queued")
            for inst in instances:
                if inst.state not in TERMINAL_STATES:
                    problems.append(
                        f"quiesced runtime holds {inst.name}#{inst.task_id} "
                        f"in non-terminal state {inst.state!r}"
                    )
        return problems

    @property
    def n_tasks(self) -> int:
        """Attempts submitted so far (retries included)."""
        return len(self._tasks)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _bind_arguments(
    spec: TaskSpec, args: tuple[Any, ...], kwargs: dict[str, Any]
) -> dict[str, Any]:
    """Map positional + keyword args to parameter names (best effort;
    *args overflow is ignored for direction purposes).  Declared
    defaults are bound too: a direction-annotated parameter left at its
    default still records its read/write against the default object
    (Python evaluates defaults once, so its identity is stable across
    calls — exactly what the INOUT version chain needs)."""
    bound: dict[str, Any] = {}
    for name, value in zip(spec.param_names, args):
        bound[name] = value
    bound.update(kwargs)
    for name, value in spec.param_defaults.items():
        bound.setdefault(name, value)
    return bound


_SCALARS = (int, float, str, bytes, bool, type(None))


def _identity_candidates(value: Any) -> Iterable[Any]:
    """Objects whose identity may carry INOUT version chains.

    Containers are traversed one level deep — both sequences and dict
    *values* (a dict of model shards passed as INOUT must depend on the
    writers of every shard, not only on writers of the dict object
    itself).  Scalars are filtered out: their identity is meaningless
    (interning) and they cannot be mutated in place."""
    if isinstance(value, _SCALARS):
        return ()
    if isinstance(value, (list, tuple)):
        out = [value]
        out.extend(v for v in value if not isinstance(v, _SCALARS))
        return out
    if isinstance(value, dict):
        out = [value]
        out.extend(v for v in value.values() if not isinstance(v, _SCALARS))
        return out
    return (value,)


def _shape_record(inst: TaskInstance) -> TaskRecord:
    """The trace record of a retired attempt."""
    constraints = inst.spec.constraints
    ctx = inst.trace_ctx
    return TaskRecord(
        task_id=inst.task_id,
        name=inst.name,
        deps=tuple(sorted(inst.deps)),
        t_start=inst.t_start,
        t_end=inst.t_end,
        computing_units=constraints.computing_units,
        gpus=constraints.gpus,
        in_bytes=inst.in_bytes,
        out_bytes=inst.out_bytes,
        parent_id=inst.parent_id,
        label=inst.label,
        attempt=inst.attempt,
        retry_of=inst.retry_of,
        status=inst.status,
        error=inst.error_repr,
        pid=inst.worker_pid,
        t_submit=inst.t_submit,
        t_ready=inst.t_ready,
        t_dispatch=inst.t_dispatch,
        worker=inst.worker_name,
        bytes_moved=inst.bytes_moved,
        bytes_saved=inst.bytes_saved,
        trace_id=ctx.trace_id if ctx is not None else None,
        span_id=ctx.span_id if ctx is not None else None,
        parent_span_id=ctx.parent_id if ctx is not None else None,
    )


def _priority(inst: TaskInstance) -> int:
    """The scheduling priority of *inst* (higher runs first)."""
    return inst.options.priority if inst.options is not None else 0


def _all_done(futures: list[Future]) -> Callable[[], bool]:
    """The ``_help_until`` predicate "every future is done".  Done never
    reverts, so each call resumes where the last one stopped."""
    cursor = 0

    def all_done() -> bool:
        nonlocal cursor
        while cursor < len(futures) and futures[cursor].done:
            cursor += 1
        return cursor == len(futures)

    return all_done


def _split_results(inst: TaskInstance, result: Any) -> tuple[Any, ...]:
    n = inst.spec.returns
    if n == 0:
        return ()
    if n == 1:
        return (result,)
    if not isinstance(result, (tuple, list)) or len(result) != n:
        raise TaskExecutionError(
            inst.name,
            inst.task_id,
            TypeError(
                f"task declared returns={n} but returned "
                f"{type(result).__name__} of length "
                f"{len(result) if isinstance(result, (tuple, list)) else 'n/a'}"
            ),
        )
    return tuple(result)
