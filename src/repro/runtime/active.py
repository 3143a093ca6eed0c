"""Which attempt the calling thread runs, and so which runtime governs it.

The lookup every ``@task`` call, ``wait_on``, ``barrier``,
``current_attempt()`` and ``current_context()`` makes, kept apart from
:mod:`repro.runtime.engine` so that the modules a task body lives in
can be imported without the engine.  A worker process runs bodies with
no runtime at all, and so never loads the engine, its configuration,
checkpointing or observability.

A thread is bound to at most one attempt, in one slot (``_tls.bound``).
Whatever sits there answers ``.runtime``, ``.attempt`` and
``.trace_ctx``:

* a running body's own :class:`~repro.runtime.model.TaskInstance`,
  bound by the engine for the span of the body — nested submissions
  count as its children and parent under its span;
* a :class:`Binding` stand-in: :meth:`Runtime.bind_current_thread`
  adopts a thread (a stream chain, a service claim thread) with a
  runtime and a trace context, and a pool worker or a runtime-less
  ``@task`` call binds one with an attempt and no runtime.

``active_runtime()`` answers from the binding when it names a runtime,
else from the stack of entered runtimes — a plain application thread
sees the innermost ``with Runtime(...)``.  A binding without a runtime
never answers it, so a nested ``@task`` call in a worker body runs
inline.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.runtime.engine import Runtime


class Binding:
    """What a thread is bound to when it runs no engine attempt: the
    runtime it submits to (or None), the attempt its body reads through
    ``current_attempt()`` and the span its submissions parent under."""

    __slots__ = ("runtime", "attempt", "trace_ctx")

    def __init__(self, runtime: "Runtime | None" = None, attempt: int = 0, trace_ctx: Any = None):
        self.runtime = runtime
        self.attempt = attempt
        self.trace_ctx = trace_ctx


class _Slot(threading.local):
    bound: Any = None  # a class default: an unset read raises no AttributeError


_tls = _Slot()

#: Written under ``_stack_lock``; read without it (one subscript).
_runtime_stack: list["Runtime"] = []
_stack_lock = threading.Lock()


def current_attempt() -> int:
    """0-based retry attempt of the task body running on this thread.

    Valid on the coordinator (thread backend / inline fallback), inside
    worker processes and without a runtime, so task bodies that want
    deterministic attempt-dependent behaviour — "fail twice, then
    succeed" — need no process-shared counters."""
    bound = _tls.bound
    return 0 if bound is None else bound.attempt


def push_runtime(rt: "Runtime") -> None:
    with _stack_lock:
        _runtime_stack.append(rt)


def pop_runtime(rt: "Runtime") -> None:
    with _stack_lock:
        if rt in _runtime_stack:
            _runtime_stack.remove(rt)


def active_runtime() -> "Runtime | None":
    """Runtime governing the current context.

    A thread running a task body belongs to that task's runtime, an
    adopted thread to the runtime that adopted it; any other thread
    sees the innermost ``with Runtime(...)``.
    """
    bound = _tls.bound
    if bound is not None:
        rt = bound.runtime
        if rt is not None:
            return rt
    try:
        return _runtime_stack[-1]
    except IndexError:
        return None
