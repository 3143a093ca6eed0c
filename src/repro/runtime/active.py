"""Which runtime governs the calling thread.

The lookup every ``@task`` call, ``wait_on`` and ``barrier`` makes,
kept apart from :mod:`repro.runtime.engine` so that the modules a task
body lives in can be imported without the engine.  A worker process
runs bodies with no runtime at all, and so never loads the engine, its
configuration, checkpointing or observability.

Two sources answer the question, innermost first:

* the thread's *scope* — while a thread runs a task body the engine
  binds that body's attempt (nested submissions and synchronisations
  stay in that task; its scope object is made by its first nested
  submission), and :meth:`Runtime.bind_current_thread` binds the root
  scope for an adopted thread; either answers ``.runtime``;
* the stack of entered runtimes — a plain application thread sees the
  innermost ``with Runtime(...)``.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.runtime.engine import Runtime


class _Binding(threading.local):
    scope: Any = None  # a class default: an unset read raises no AttributeError


_tls = _Binding()

#: Written under ``_stack_lock``; read without it (one subscript).
_runtime_stack: list["Runtime"] = []
_stack_lock = threading.Lock()


def current_scope() -> Any:
    """The engine scope (or running attempt) bound to the calling
    thread, or None."""
    return _tls.scope


def push_runtime(rt: "Runtime") -> None:
    with _stack_lock:
        _runtime_stack.append(rt)


def pop_runtime(rt: "Runtime") -> None:
    with _stack_lock:
        if rt in _runtime_stack:
            _runtime_stack.remove(rt)


def active_runtime() -> "Runtime | None":
    """Runtime governing the current context.

    A worker thread executing a task belongs to that task's runtime; a
    plain application thread sees the innermost ``with Runtime(...)``.
    """
    scope = _tls.scope
    if scope is not None:
        return scope.runtime
    try:
        return _runtime_stack[-1]
    except IndexError:
        return None
