"""Task-based runtime — the PyCOMPSs/COMPSs analog.

Public surface:

* :func:`task` — decorator turning a function into a task; per-task
  failure management via ``on_failure`` / ``max_retries`` /
  ``time_out``, call-site overrides via ``my_task.opts(...)``.
* :data:`IN` / :data:`INOUT` / :data:`OUT` — parameter directions.
* :class:`Runtime` — runtime instance (use as a context manager);
  configured by a :class:`RuntimeConfig` (``REPRO_*`` env overrides).
  ``RuntimeConfig(backend="processes")`` (or ``REPRO_BACKEND``)
  dispatches task bodies to persistent worker processes
  (:mod:`repro.runtime.backends`); :func:`current_attempt` exposes the
  retry attempt inside a task body on either backend, and
  :func:`shutdown_workers` tears the shared worker pool down.
* :func:`wait_on` — synchronise futures into values
  (``compss_wait_on``).
* :func:`barrier` — wait for all tasks submitted from the calling
  context: a body's nested tasks, else the top-level ones
  (``compss_barrier``).
* :class:`ObjectRef` / :class:`ObjectStore` — the shared-memory data
  plane (:mod:`repro.runtime.store`): ``Runtime.put(value)`` returns a
  ref accepted anywhere the value would be, ``Runtime.get``/
  ``wait_on`` turn refs back into arrays, ``Runtime.release`` frees
  them.  With ``backend="processes"`` large array arguments and
  results travel by reference automatically (``RuntimeConfig(store=)``
  / ``REPRO_STORE``).
* :class:`TaskCall` / ``my_task.defer(...)`` — deferred call sites for
  ``Runtime.submit_many(calls)`` batch intake.
* :mod:`repro.runtime.compat` — PyCOMPSs-named aliases
  (:func:`compss_wait_on`, :func:`compss_barrier`, :func:`compss_open`)
  so paper snippets run verbatim.
* :class:`Constraints` — per-task resource requirements.
* :func:`to_dot` / :func:`graph_summary` — execution-graph export.
* :class:`CheckpointStore` — crash-consistent persistence of task
  results; set ``RuntimeConfig(checkpoint_dir=...)`` (or
  ``REPRO_CHECKPOINT_DIR``) and a killed workflow resumes, re-executing
  only the tasks whose results are not already in the store.
* :func:`atomic_write` — temp file + fsync + rename file writes, used
  by every exporter here and available to applications.
* :mod:`repro.runtime.observability` — read-side views of the task
  table (the lifecycle history the flight recorder dumps, the live
  progress line enabled with ``RuntimeConfig(observability="progress")``
  or ``REPRO_OBSERVABILITY``) and trace analysis
  (:func:`critical_path`, :func:`summarize_trace`).  The run's counts
  are ``Runtime.stats()``.
* :mod:`repro.runtime.otlp` — the one record of a run: a trace as an
  OTLP document (``trace_to_otlp``, dependencies as span links, every
  record field an attribute, the repro/Python/numpy versions on the
  resource), read back by ``otlp_to_traces`` and drawn by the one
  chrome://tracing renderer, ``otlp_to_chrome``.

Importing the package loads what the module of a task body needs —
:func:`task`, :func:`wait_on`, futures, directions, failure policies,
exceptions, store handles, :func:`current_attempt` — and nothing only a
coordinator runs.  ``Runtime``, ``RuntimeConfig`` and the checkpoint,
observability, DOT, trace and ``compss_*`` names are
imported on first access, so a worker process never loads the engine
(DESIGN.md §11).
"""

from __future__ import annotations

import importlib
from typing import Any

from repro.runtime.active import active_runtime, current_attempt
from repro.runtime.atomic_write import atomic_write
from repro.runtime.backends import shutdown_workers
from repro.runtime.directions import IN, INOUT, OUT, Direction
from repro.runtime.exceptions import (
    CancelledTaskError,
    CheckpointError,
    NodeFailureError,
    RuntimeStateError,
    TaskDefinitionError,
    TaskExecutionError,
    TaskTimeoutError,
    WorkflowAbortedError,
    WorkflowKilledError,
)
from repro.runtime.failures import (
    CANCEL_SUCCESSORS,
    FAIL,
    IGNORE,
    RETRY,
    TaskOptions,
)
from repro.runtime.future import Future, is_future, resolve_futures
from repro.runtime.model import Constraints, TaskCall
from repro.runtime.store import ObjectRef, ObjectStore, StoreError, is_ref
from repro.runtime.task import task

#: Public names whose modules only a coordinator needs, by module: they
#: are imported on first access (:func:`__getattr__`), so a worker
#: process that imports a task module never loads them.
_LAZY_MODULES = {
    "engine": ("Runtime",),
    "config": ("RuntimeConfig",),
    "checkpoint": ("CheckpointStore", "fingerprint", "task_signature"),
    "observability": (
        "CriticalPath",
        "ProgressReporter",
        "critical_path",
        "summarize_trace",
    ),
    "dot": ("graph_summary", "to_dot"),
    "tracing": ("TaskRecord", "Trace"),
    "compat": (
        "compss_barrier",
        "compss_delete_file",
        "compss_delete_object",
        "compss_open",
        "compss_wait_on",
    ),
}
_LAZY = {name: module for module, names in _LAZY_MODULES.items() for name in names}

__all__ = [
    "task",
    "IN",
    "INOUT",
    "OUT",
    "Direction",
    "Runtime",
    "RuntimeConfig",
    "TaskOptions",
    "active_runtime",
    "wait_on",
    "barrier",
    "Constraints",
    "TaskCall",
    "Future",
    "is_future",
    "ObjectRef",
    "ObjectStore",
    "StoreError",
    "is_ref",
    "Trace",
    "TaskRecord",
    "ProgressReporter",
    "CriticalPath",
    "critical_path",
    "summarize_trace",
    "to_dot",
    "graph_summary",
    "CheckpointStore",
    "fingerprint",
    "task_signature",
    "atomic_write",
    "FAIL",
    "RETRY",
    "IGNORE",
    "CANCEL_SUCCESSORS",
    "TaskDefinitionError",
    "TaskExecutionError",
    "TaskTimeoutError",
    "RuntimeStateError",
    "CancelledTaskError",
    "NodeFailureError",
    "current_attempt",
    "shutdown_workers",
    "WorkflowAbortedError",
    "WorkflowKilledError",
    "CheckpointError",
    "compss_wait_on",
    "compss_barrier",
    "compss_open",
    "compss_delete_object",
    "compss_delete_file",
]


def wait_on(obj: Any) -> Any:
    """Synchronise futures (possibly nested in containers) to values.

    Outside any runtime this is a pass-through (after resolving stray
    futures), matching PyCOMPSs' behaviour in sequential execution.
    """
    rt = active_runtime()
    if rt is None:
        return resolve_futures(obj)
    return rt.wait_on(obj)


def barrier() -> None:
    """Block until every task submitted from the calling context finished
    (a body's nested tasks, else the top-level ones)."""
    rt = active_runtime()
    if rt is not None:
        rt.barrier()


def __getattr__(name: str) -> Any:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
