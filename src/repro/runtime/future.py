"""Futures: placeholders for values produced by not-yet-executed tasks.

A :class:`Future` is what a ``@task``-decorated function returns at call
time.  Passing a future into another task creates a true (read-after-
write) dependency between the two tasks; calling
:func:`repro.runtime.wait_on` synchronises it into a concrete value.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.runtime.exceptions import CancelledTaskError

_PENDING = "pending"
_DONE = "done"
_FAILED = "failed"
_CANCELLED = "cancelled"

#: Serialises lazy event materialisation across futures.  One global
#: lock is fine: it is only ever taken by a ``result()`` call that
#: found its future still pending — the slow path by definition.
_materialize_lock = threading.Lock()


class Future:
    """A single value produced by a task.

    Futures are created by the runtime only; user code never constructs
    them directly.  Each future knows the task that produces it
    (``task_id``) and its position among that task's return values
    (``index``), which the tracing layer uses to attribute data sizes.
    """

    __slots__ = (
        "task_id",
        "index",
        "_state",
        "_value",
        "_error",
        "_event",
        "_runtime_id",
    )

    def __init__(self, task_id: int, index: int, runtime_id: int):
        self.task_id = task_id
        self.index = index
        self._state = _PENDING
        self._value: Any = None
        self._error: BaseException | None = None
        #: Materialised lazily on the first blocking ``result()`` call.
        #: Most futures in fine-grained workloads are resolved before
        #: anyone waits on them, so allocating a ``threading.Event``
        #: (with its internal condition + lock) per future at submit
        #: time was pure overhead on the scheduling hot path.
        self._event: threading.Event | None = None
        self._runtime_id = runtime_id

    # -- state transitions (runtime-internal) ---------------------------
    # The value/error is written *before* the state flips away from
    # pending, and the state *before* the event is checked: a reader
    # that observes a non-pending state therefore always sees the
    # value.  The interpreter's sequentially-consistent bytecode
    # execution closes the materialise/set race: if the setter misses
    # the event (reads None), its state store already happened before
    # the waiter's event store, so the waiter's re-check of the state
    # after publishing its event must see the terminal state.
    def _set_result(self, value: Any) -> None:
        self._value = value
        self._state = _DONE
        event = self._event
        if event is not None:
            event.set()

    def _set_error(self, error: BaseException) -> None:
        self._error = error
        self._state = _FAILED
        event = self._event
        if event is not None:
            event.set()

    def _cancel(self, cause: BaseException | None = None) -> None:
        # *cause*: the failed upstream attempt's TaskExecutionError, or
        # None for a cancellation no failure caused (shutdown, abort).
        self._error = cause
        self._state = _CANCELLED
        event = self._event
        if event is not None:
            event.set()

    # -- inspection ------------------------------------------------------
    @property
    def done(self) -> bool:
        """True once the producing task finished (successfully or not)."""
        return self._state != _PENDING

    @property
    def failed(self) -> bool:
        return self._state == _FAILED

    def result(self, timeout: float | None = None) -> Any:
        """Block until the value is available and return it.

        Raises the producing task's error (wrapped in
        :class:`TaskExecutionError`) if it failed, or
        :class:`CancelledTaskError` if it was cancelled — chained from
        the upstream task's error when an upstream failure caused it.
        """
        if self._state == _PENDING:
            event = self._event
            if event is None:
                with _materialize_lock:
                    event = self._event
                    if event is None:
                        event = self._event = threading.Event()
            # Re-check after publishing the event: a setter running
            # concurrently either saw our event (and will set it) or
            # completed before our store, in which case the state is
            # already terminal here.
            if self._state == _PENDING and not event.wait(timeout):
                raise TimeoutError(
                    f"future from task {self.task_id} not resolved within {timeout}s"
                )
        if self._state == _FAILED:
            assert self._error is not None
            raise self._error
        if self._state == _CANCELLED:
            cause = self._error
            if cause is None:
                raise CancelledTaskError(f"task {self.task_id} was cancelled")
            raise CancelledTaskError(
                f"task {self.task_id} was cancelled: "
                f"upstream {cause.task_name}#{cause.task_id} failed"
            ) from cause
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Future task={self.task_id}[{self.index}] {self._state}>"


def is_future(obj: Any) -> bool:
    """True if *obj* is a runtime future."""
    return isinstance(obj, Future)


def scan_futures(obj: Any) -> list[Future]:
    """Collect futures reachable from *obj*.

    The runtime detects dependencies through arguments, mirroring
    COMPSs: futures may appear directly, or inside (nested) lists,
    tuples and dict values.  Sets are not scanned because futures are
    compared by identity and a set of futures is almost always a bug.
    """
    found: list[Future] = []
    _scan(obj, found)
    return found


def _scan(obj: Any, out: list[Future]) -> None:
    if isinstance(obj, Future):
        out.append(obj)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _scan(item, out)
    elif isinstance(obj, dict):
        for item in obj.values():
            _scan(item, out)


def resolve_futures(obj: Any) -> Any:
    """Deep-replace futures in *obj* with their concrete results.

    Used by the executor right before invoking a task body, and by
    ``wait_on`` when handed a container of futures.  Containers are
    rebuilt (lists stay lists, tuples stay tuples) so task bodies can
    mutate list arguments without affecting the caller's structure.
    """
    if isinstance(obj, Future):
        return obj.result()
    if isinstance(obj, list):
        return [resolve_futures(v) for v in obj]
    if isinstance(obj, tuple):
        return tuple(resolve_futures(v) for v in obj)
    if isinstance(obj, dict):
        return {k: resolve_futures(v) for k, v in obj.items()}
    return obj
