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
``REPRO_DEBUG_INVARIANTS``  ``1``/``0`` — validate state transitions
``REPRO_OBSERVABILITY``   observability flags (``metrics``,
                          ``progress``, ``all``; comma-separated)
``REPRO_STORE``           ``auto`` | ``off`` — by-reference transport
                          through the shared-memory object store
                          (data plane; see :mod:`repro.runtime.store`)
``REPRO_STORE_CAPACITY_MB``  shared-memory budget before LRU spill
``REPRO_STORE_SPILL_DIR``    directory of the spill tier
``REPRO_STORE_THRESHOLD_BYTES``  arrays below this size stay inline
``REPRO_FLIGHTREC``       crash flight-recorder dump directory
                          (enables the recorder; see
                          :mod:`repro.runtime.flightrec`)
========================  =====================================

``REPRO_LOG_JSON`` (read by :mod:`repro.runtime.structlog`, not a
config field) switches structured log output to JSON lines.
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
    #: Validate every task state transition against the lifecycle
    #: state machine and record violations (see
    #: ``Runtime.check_invariants``).  Cheap but not free; enabled by
    #: the randomized runtime tests (``tests/runtime/test_stress.py``),
    #: off by default in production.
    debug_invariants: bool = False
    #: Observability flags: ``""`` (default, off), or a comma/space
    #: separated subset of ``metrics`` (``Runtime.metrics()`` shapes the
    #: task-lifecycle series from the task table when read, next to a
    #: :class:`~repro.runtime.observability.MetricsRegistry` for
    #: manually written series) and ``progress`` (a throttled live
    #: progress line on stderr, counted from the same table).  ``all``
    #: enables everything.  Lifecycle timestamps are always stamped.
    observability: str = ""
    #: Shared-memory object store (:mod:`repro.runtime.store`):
    #: ``"auto"`` (default) activates by-reference data passing when —
    #: and only when — the process backend is selected, ``"off"``
    #: disables it.  ``Runtime.put``/``get`` work in both modes (the
    #: store itself is created on first use); this knob controls
    #: automatic by-ref transport in the backend.
    store: str = "auto"
    #: Shared-memory budget in MiB; the LRU tier spills the coldest
    #: unpinned objects to ``store_spill_dir`` beyond it.
    store_capacity_mb: float = 256.0
    #: Spill directory (None = a per-store folder under the system
    #: temp dir, removed at shutdown).
    store_spill_dir: str | None = None
    #: Arrays smaller than this stay on the classic pickle path — a
    #: shared-memory round trip costs more than copying a tiny buffer.
    store_threshold_bytes: int = 65536
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
        if self.store_capacity_mb <= 0:
            raise ValueError("store_capacity_mb must be > 0")
        if self.store_threshold_bytes < 0:
            raise ValueError("store_threshold_bytes must be >= 0")
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
        take("REPRO_DEBUG_INVARIANTS", "debug_invariants", _parse_bool)
        take("REPRO_OBSERVABILITY", "observability", str)
        take("REPRO_STORE", "store", str)
        take("REPRO_STORE_CAPACITY_MB", "store_capacity_mb", float)
        take("REPRO_STORE_SPILL_DIR", "store_spill_dir", str)
        take("REPRO_STORE_THRESHOLD_BYTES", "store_threshold_bytes", int)
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
