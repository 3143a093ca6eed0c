"""Runtime configuration.

A :class:`RuntimeConfig` gathers every knob the
:class:`~repro.runtime.engine.Runtime` accepts — executor, pool size,
trace collection, checkpointing, the object store — into one
validated, immutable object, replacing the loose keyword arguments of
earlier releases.  ``RuntimeConfig.from_env()`` applies ``REPRO_*``
environment overrides so deployments can reconfigure the runtime
without touching code::

    REPRO_EXECUTOR=sequential REPRO_TRACE=0 python workflow.py

The failure-policy defaults (policy, retry budget, backoff) are
constants of :mod:`repro.runtime.failures`; a task overrides them
through its own ``on_failure``/``max_retries``/``retry_backoff``.

Environment variables (all optional):

========================  =====================================
``REPRO_EXECUTOR``        ``threads`` | ``sequential``
``REPRO_BACKEND``         ``threads`` | ``processes`` (where task
                          bodies run; see :mod:`repro.runtime.backends`)
``REPRO_MAX_WORKERS``     int (worker-pool size)
``REPRO_TRACE``           ``1``/``0`` — collect task records
``REPRO_CHECKPOINT_DIR``  checkpoint-store directory (enables resume)
``REPRO_OBSERVABILITY``   observability flags (``metrics``,
                          ``progress``, ``all``; comma-separated)
``REPRO_STORE``           ``auto`` | ``off`` — by-reference transport
                          through the shared-memory object store
                          (data plane; see :mod:`repro.runtime.store`)
``REPRO_FLIGHTREC``       crash flight-recorder dump directory
                          (enables the recorder; see
                          :mod:`repro.runtime.flightrec`)
========================  =====================================

The store's inline threshold and worker cache bound are constants of
:mod:`repro.runtime.store`, not fields, and the state-transition checks
always run (``Runtime.check_invariants``).
"""

from __future__ import annotations

import dataclasses
import os
from typing import Any

_EXECUTORS = ("threads", "sequential")
_BACKENDS = ("threads", "processes")
_STORE_MODES = ("auto", "off")


@dataclasses.dataclass(frozen=True)
class RuntimeConfig:
    """Validated, immutable runtime configuration."""

    executor: str = "threads"
    #: Execution backend: where task *bodies* run.  ``"threads"`` (the
    #: default) calls them in-process; ``"processes"`` dispatches pure,
    #: importable tasks to persistent worker processes over pipes
    #: (pickle protocol 5, NumPy blocks out-of-band) and falls back to
    #: an inline call otherwise — see :mod:`repro.runtime.backends`.
    backend: str = "threads"
    max_workers: int | None = None
    name: str = "repro-runtime"
    #: Record a :class:`~repro.runtime.tracing.TaskRecord` per attempt.
    collect_trace: bool = True
    #: Directory of the :class:`~repro.runtime.checkpoint.CheckpointStore`
    #: persisting completed task outputs.  When set, the runtime
    #: transparently skips tasks whose signature is already in the store
    #: (crash/resume), and checkpoints every completed pure task.
    #: ``None`` (default) disables checkpointing entirely.
    checkpoint_dir: str | None = None
    #: Observability flags: ``""`` (default, off), or a comma/space
    #: separated subset of ``progress`` (a throttled live progress line
    #: on stderr, counted from the task table) and ``metrics`` (accepted,
    #: does nothing: counts are ``Runtime.stats()``).  ``all`` enables
    #: everything.  Lifecycle timestamps are always stamped.
    observability: str = ""
    #: Shared-memory object store (:mod:`repro.runtime.store`):
    #: ``"auto"`` (default) activates by-reference data passing when —
    #: and only when — the process backend is selected, ``"off"``
    #: disables it.  ``Runtime.put``/``get`` work in both modes (the
    #: store itself is created on first use); this knob controls
    #: automatic by-ref transport in the backend.
    store: str = "auto"
    #: Read by nothing (no fusion pass); bench/workloads pass it until ROADMAP item 1.
    fusion: bool = False
    #: Directory for crash flight-recorder dumps.  When set, the
    #: runtime writes the tail of its lifecycle history — a view of
    #: the task table, nothing is kept while it runs
    #: (:class:`~repro.runtime.flightrec.FlightRecorder`) — there as
    #: JSON on workflow kill/abort, and on watchdog trips and service
    #: SIGTERM via :func:`repro.runtime.flightrec.dump_all`.
    #: ``None`` (default) disables the recorder.
    flightrec_dir: str | None = None

    def __post_init__(self) -> None:
        if self.executor not in _EXECUTORS:
            raise ValueError(f"unknown executor {self.executor!r}; expected one of {_EXECUTORS}")
        if self.backend not in _BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; expected one of {_BACKENDS}")
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if self.store not in _STORE_MODES:
            raise ValueError(f"unknown store mode {self.store!r}; expected one of {_STORE_MODES}")
        from repro.runtime.observability import parse_flags

        parse_flags(self.observability)  # raises ValueError on unknown flags

    def replace(self, **changes: Any) -> "RuntimeConfig":
        """A copy with *changes* applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    @classmethod
    def from_env(cls, environ: dict[str, str] | None = None, **overrides: Any) -> "RuntimeConfig":
        """Defaults, then ``REPRO_*`` environment variables, then
        explicit keyword *overrides* (strongest)."""
        env = os.environ if environ is None else environ
        values: dict[str, Any] = {}

        def take(var: str, field: str, conv) -> None:
            raw = env.get(var)
            if raw is not None and raw != "":
                try:
                    values[field] = conv(raw)
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"invalid {var}={raw!r}: {exc}") from exc

        take("REPRO_EXECUTOR", "executor", str)
        take("REPRO_BACKEND", "backend", str)
        take("REPRO_MAX_WORKERS", "max_workers", int)
        take("REPRO_TRACE", "collect_trace", _parse_bool)
        take("REPRO_CHECKPOINT_DIR", "checkpoint_dir", str)
        take("REPRO_OBSERVABILITY", "observability", str)
        take("REPRO_STORE", "store", str)
        take("REPRO_FLIGHTREC", "flightrec_dir", str)
        values.update(overrides)
        return cls(**values)


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected a boolean (1/0/true/false)")
