"""Failure-management policies and per-task options.

This is the COMPSs ``on_failure`` machinery: every task declares what
the runtime should do when an attempt raises (or times out), and the
runtime — not the task body — performs resubmission, so retry attempts
are first-class DAG nodes visible in the trace and the DOT export.

Policies
--------
``FAIL``
    Abort the whole workflow: the error surfaces on the task's futures,
    every pending task in the runtime is cancelled and further
    submissions raise :class:`~repro.runtime.exceptions.WorkflowAbortedError`
    (COMPSs: "failure of the whole workflow").
``RETRY``
    Resubmit the task up to ``max_retries`` extra attempts (default
    :data:`DEFAULT_MAX_RETRIES`), with exponential backoff and
    deterministic jitter; if every attempt fails, fall back to
    ``CANCEL_SUCCESSORS`` semantics.
``CANCEL_SUCCESSORS`` (default)
    Cancel the transitive successors of the failed task; independent
    branches keep running and the error surfaces on ``wait_on``.
``IGNORE``
    Swallow the failure: the task's futures resolve to the declared
    ``failure_default`` and successors run normally.  The failed
    attempt is still recorded in the trace with ``status="ignored"``.

``max_retries`` composes with every policy: the policy only applies
once all attempts are exhausted, so ``on_failure="IGNORE"`` with
``max_retries=2`` means "try three times, then substitute the default".
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.runtime.exceptions import TaskDefinitionError

#: COMPSs-style failure policies.
FAIL = "FAIL"
RETRY = "RETRY"
IGNORE = "IGNORE"
CANCEL_SUCCESSORS = "CANCEL_SUCCESSORS"

POLICIES = (FAIL, RETRY, IGNORE, CANCEL_SUCCESSORS)

#: Policy of a task that declared no ``on_failure`` of its own.
DEFAULT_ON_FAILURE = CANCEL_SUCCESSORS
#: Retry budget of a ``RETRY`` task that declared no ``max_retries``
#: (COMPSs resubmits twice by default).
DEFAULT_MAX_RETRIES = 2
#: Base of the exponential retry backoff in seconds, unless a task
#: declares its own ``retry_backoff``.
RETRY_BACKOFF = 0.001
#: Ceiling of the retry backoff in seconds.
RETRY_BACKOFF_CAP = 0.25
#: Seed of the deterministic retry jitter.
JITTER_SEED = 0

#: Sentinel distinguishing "no failure_default declared" from ``None``.
_UNSET = object()


def validate_policy(policy: str) -> str:
    if policy not in POLICIES:
        raise TaskDefinitionError(
            f"unknown on_failure policy {policy!r}; expected one of {POLICIES}"
        )
    return policy


@dataclasses.dataclass(frozen=True)
class TaskOptions:
    """Call-site (or decorator-level) task options.

    Every field defaults to "unset"; unset fields fall back to the
    ``@task`` declaration and then to this module's defaults.  Created
    explicitly via ``my_task.opts(label=..., max_retries=...)(args)``.
    """

    label: str | None = None
    on_failure: str | None = None
    max_retries: int | None = None
    time_out: float | None = None
    failure_default: Any = _UNSET
    priority: int | None = None
    retry_backoff: float | None = None
    #: Opt this task out of (or explicitly into) result checkpointing
    #: when the runtime has a checkpoint store; ``None`` inherits
    #: (default: checkpointed when pure — no INOUT/OUT, returns > 0).
    checkpoint: bool | None = None

    def __post_init__(self) -> None:
        if self.on_failure is not None:
            validate_policy(self.on_failure)
        if self.max_retries is not None and self.max_retries < 0:
            raise TaskDefinitionError("max_retries must be >= 0")
        if self.time_out is not None and self.time_out <= 0:
            raise TaskDefinitionError("time_out must be > 0 seconds")
        if self.retry_backoff is not None and self.retry_backoff < 0:
            raise TaskDefinitionError("retry_backoff must be >= 0")

    def merged_over(self, base: "TaskOptions") -> "TaskOptions":
        """These options with *base* filling any unset field."""
        return TaskOptions(
            label=self.label if self.label is not None else base.label,
            on_failure=self.on_failure if self.on_failure is not None else base.on_failure,
            max_retries=self.max_retries if self.max_retries is not None else base.max_retries,
            time_out=self.time_out if self.time_out is not None else base.time_out,
            failure_default=(
                self.failure_default
                if self.failure_default is not _UNSET
                else base.failure_default
            ),
            priority=self.priority if self.priority is not None else base.priority,
            retry_backoff=(
                self.retry_backoff if self.retry_backoff is not None else base.retry_backoff
            ),
            checkpoint=self.checkpoint if self.checkpoint is not None else base.checkpoint,
        )


#: Options of a task that declared nothing.
NO_OPTIONS = TaskOptions()


@dataclasses.dataclass(frozen=True)
class ResolvedOptions:
    """Fully-resolved effective options for one task instance."""

    label: str | None
    on_failure: str
    max_retries: int
    time_out: float | None
    failure_default: Any
    priority: int
    retry_backoff: float
    #: Whether this instance may be checkpointed/restored (still gated
    #: on the task being pure and the runtime having a store).
    checkpoint: bool = True


def resolve_options(spec_options: TaskOptions, call_options: TaskOptions | None) -> ResolvedOptions:
    """Merge call-site > decorator > this module's defaults."""
    opts = (call_options or NO_OPTIONS).merged_over(spec_options)
    on_failure = opts.on_failure or DEFAULT_ON_FAILURE
    max_retries = opts.max_retries
    if max_retries is None:
        # RETRY without an explicit budget uses the default; every
        # other policy defaults to no resubmission.
        max_retries = DEFAULT_MAX_RETRIES if on_failure == RETRY else 0
    return ResolvedOptions(
        label=opts.label,
        on_failure=on_failure,
        max_retries=max_retries,
        time_out=opts.time_out,
        failure_default=None if opts.failure_default is _UNSET else opts.failure_default,
        priority=opts.priority if opts.priority is not None else 0,
        retry_backoff=opts.retry_backoff if opts.retry_backoff is not None else RETRY_BACKOFF,
        checkpoint=opts.checkpoint if opts.checkpoint is not None else True,
    )


def split_default(default: Any, returns: int) -> tuple[Any, ...]:
    """Shape an ``IGNORE`` task's ``failure_default`` onto its *returns*
    values: a tuple/list of matching length is split, anything else is
    replicated per value."""
    if isinstance(default, (tuple, list)) and len(default) == returns:
        return tuple(default)
    return (default,) * returns


def retry_delay(
    base: float,
    attempt: int,
    *,
    task_name: str,
    root_id: int,
    seed: int = 0,
    cap: float | None = None,
) -> float:
    """Backoff before retry *attempt* (1-based): exponential with
    deterministic jitter.

    The jitter factor in ``[0.75, 1.25)`` is derived from a SHA-256
    hash of ``(seed, task_name, root_id, attempt)``, so a re-run of the
    same workflow under the same seed waits exactly as long — retries
    stay reproducible, yet synchronized thundering-herd resubmission is
    broken up.

    Shared by both retry layers: the in-process engine's task retries
    (``root_id`` = the task's root instance id) and the durable queue
    service's redelivery backoff (:mod:`repro.service.queue`, with
    ``root_id`` = the queue task id) — one backoff policy everywhere.
    """
    if base <= 0 or attempt <= 0:
        return 0.0
    import hashlib  # not at module top: loading OpenSSL costs a worker ~4 ms

    raw = base * (2 ** (attempt - 1))
    digest = hashlib.sha256(f"{seed}:{task_name}:{root_id}:{attempt}".encode()).digest()
    jitter = 0.75 + (int.from_bytes(digest[:4], "big") / 2**32) * 0.5
    delay = raw * jitter
    if cap is not None:
        delay = min(delay, cap)
    return delay
