"""The ``@task`` decorator — the PyCOMPSs programming-model analog.

Decorating a function turns each call into a task submission on the
active runtime; the call returns :class:`~repro.runtime.future.Future`
placeholders instead of values.  When no runtime is active the function
simply runs inline and returns concrete values, matching PyCOMPSs
scripts executing as plain Python.

Call-site overrides use the chained ``.opts(...)`` API::

    result = train.opts(label="fold-3", max_retries=2, time_out=30.0)(x, y)

Examples
--------
>>> from repro.runtime import task, wait_on, Runtime
>>> @task(returns=1)
... def add(a, b):
...     return a + b
>>> with Runtime(executor="sequential"):
...     c = add(1, 2)          # future
...     d = add(c, 3)          # depends on the first task
...     print(wait_on(d))
6
"""

from __future__ import annotations

import functools
import inspect
from typing import Any, Callable

from repro.runtime.active import Binding, _tls, active_runtime
from repro.runtime.directions import Direction, coerce_direction
from repro.runtime.exceptions import TaskDefinitionError
from repro.runtime.failures import IGNORE, TaskOptions, _UNSET, resolve_options, split_default
from repro.runtime.future import resolve_futures
from repro.runtime.model import Constraints, TaskCall, TaskSpec

#: Reserved decorator keywords (everything else is a parameter direction).
_RESERVED = {
    "returns",
    "constraints",
    "label",
    "name",
    "max_retries",
    "on_failure",
    "time_out",
    "failure_default",
    "priority",
    "checkpoint",
}


def task(
    _func: Callable[..., Any] | None = None,
    *,
    returns: int = 0,
    constraints: Constraints | dict | None = None,
    label: str | None = None,
    name: str | None = None,
    max_retries: int | None = None,
    on_failure: str | None = None,
    time_out: float | None = None,
    failure_default: Any = _UNSET,
    priority: int | None = None,
    checkpoint: bool | None = None,
    **param_directions: Any,
) -> Callable[..., Any]:
    """Declare a function as a task.

    Parameters
    ----------
    returns:
        Number of values the function returns; each becomes a future.
    constraints:
        Resource constraints (:class:`Constraints` or a dict with
        ``computing_units`` / ``gpus``), consumed by the cluster
        simulator when replaying the trace at paper scale.
    label:
        Free-form tag recorded in the trace (e.g. the fold index).
    name:
        Override the task name (defaults to the function name).
    max_retries:
        Runtime-level resubmission budget: each failed attempt is
        re-enqueued through the scheduler as a fresh DAG node (COMPSs
        task resubmission), with exponential backoff and deterministic
        jitter.
    on_failure:
        Failure policy applied once attempts are exhausted: ``"FAIL"``,
        ``"RETRY"``, ``"IGNORE"`` or ``"CANCEL_SUCCESSORS"`` (default,
        from :class:`~repro.runtime.config.RuntimeConfig`).
    time_out:
        Per-task deadline in seconds, enforced by a watchdog under the
        ``threads`` executor (post-hoc under ``sequential``); overruns
        raise :class:`~repro.runtime.exceptions.TaskTimeoutError` and
        feed the same failure policies.
    failure_default:
        Value the task's futures resolve to when ``on_failure="IGNORE"``
        swallows a failure.
    priority:
        Scheduling priority (higher runs first among ready tasks).
    checkpoint:
        Set ``False`` to exclude this task from result checkpointing on
        runtimes with a checkpoint store (use for nondeterministic or
        side-effecting tasks).  Pure tasks default to checkpointed.
    **param_directions:
        Per-parameter directions, e.g. ``model=INOUT``.  Unlisted
        parameters default to ``IN``.
    """

    def decorate(func: Callable[..., Any]) -> Callable[..., Any]:
        if returns < 0:
            raise TaskDefinitionError("returns must be >= 0")
        options = TaskOptions(
            label=label,
            on_failure=on_failure,
            max_retries=max_retries,
            time_out=time_out,
            failure_default=failure_default,
            priority=priority,
            checkpoint=checkpoint,
        )

        sig = inspect.signature(func)
        param_names = tuple(
            p.name
            for p in sig.parameters.values()
            if p.kind
            in (
                inspect.Parameter.POSITIONAL_ONLY,
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
            )
        )
        param_defaults = {
            p.name: p.default
            for p in sig.parameters.values()
            if p.default is not inspect.Parameter.empty
            and p.kind is not inspect.Parameter.VAR_KEYWORD
        }
        directions: dict[str, Direction] = {}
        for pname, value in param_directions.items():
            if pname in _RESERVED:
                continue
            if pname not in sig.parameters:
                raise TaskDefinitionError(
                    f"direction declared for unknown parameter {pname!r} "
                    f"of task {func.__name__!r}"
                )
            directions[pname] = coerce_direction(value)

        if constraints is None:
            cons = Constraints()
        elif isinstance(constraints, Constraints):
            cons = constraints
        elif isinstance(constraints, dict):
            cons = Constraints(**constraints)
        else:
            raise TaskDefinitionError(
                f"constraints must be Constraints or dict, got {type(constraints)}"
            )

        spec = TaskSpec(
            func=func,
            name=name or func.__name__,
            returns=returns,
            directions=directions,
            constraints=cons,
            param_names=param_names,
            param_defaults=param_defaults,
            options=options,
        )

        def invoke(args: tuple, kwargs: dict, call_options: TaskOptions | None):
            rt = active_runtime()
            if rt is None:
                # No runtime: run as a plain function (PyCOMPSs scripts
                # degrade to sequential Python the same way), honouring
                # the retry budget and IGNORE policy inline.
                return _run_inline(spec, call_options, args, kwargs)
            return rt.submit(spec, args, kwargs, options=call_options)

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any):
            return invoke(args, kwargs, None)

        def opts(
            *,
            label: str | None = None,
            on_failure: str | None = None,
            max_retries: int | None = None,
            time_out: float | None = None,
            failure_default: Any = _UNSET,
            priority: int | None = None,
            retry_backoff: float | None = None,
            checkpoint: bool | None = None,
        ) -> Callable[..., Any]:
            """Bind call-site option overrides; returns a callable
            submitting the task with them applied."""
            call_options = TaskOptions(
                label=label,
                on_failure=on_failure,
                max_retries=max_retries,
                time_out=time_out,
                failure_default=failure_default,
                priority=priority,
                retry_backoff=retry_backoff,
                checkpoint=checkpoint,
            )

            @functools.wraps(func)
            def bound(*args: Any, **kwargs: Any):
                return invoke(args, kwargs, call_options)

            def bound_defer(*args: Any, **kwargs: Any) -> TaskCall:
                return TaskCall(spec, args, kwargs, options=call_options)

            bound.options = call_options  # type: ignore[attr-defined]
            bound.spec = spec  # type: ignore[attr-defined]
            bound.defer = bound_defer  # type: ignore[attr-defined]
            return bound

        def defer(*args: Any, **kwargs: Any) -> TaskCall:
            """Capture this call as a :class:`TaskCall` for
            ``Runtime.submit_many`` — nothing runs until the batch is
            submitted."""
            return TaskCall(spec, args, kwargs)

        wrapper.spec = spec  # type: ignore[attr-defined]
        wrapper.opts = opts  # type: ignore[attr-defined]
        wrapper.defer = defer  # type: ignore[attr-defined]
        wrapper.__wrapped__ = func
        return wrapper

    if _func is not None:
        return decorate(_func)
    return decorate


def _run_inline(
    spec: TaskSpec, call_options: TaskOptions | None, args: tuple, kwargs: dict
) -> Any:
    """Runtime-less execution: a plain call under the engine's failure
    semantics, so scripts behave the same with and without a runtime —
    the same resolved options, each try bound to its attempt (what
    ``current_attempt()`` reads; the thread keeps its trace context),
    the ``IGNORE`` default shaped as the runtime shapes it."""
    options = resolve_options(spec.options, call_options)
    prev = _tls.bound
    bound = _tls.bound = Binding(None, 0, None if prev is None else prev.trace_ctx)
    try:
        for attempt in range(options.max_retries + 1):
            bound.attempt = attempt
            try:
                return spec.func(*resolve_futures(args), **resolve_futures(kwargs))
            except Exception as exc:  # noqa: BLE001 - inline failure management
                last = exc
    finally:
        _tls.bound = prev
    if options.on_failure != IGNORE:
        raise last
    if spec.returns == 0:
        return None
    values = split_default(options.failure_default, spec.returns)
    return values[0] if spec.returns == 1 else values
