"""Crash flight recorder: the last N lifecycle rows, dumped on the way down.

A :class:`FlightRecorder` holds no events of its own.  It is given a
callable returning the time-ordered lifecycle rows of a runtime
(:func:`~repro.runtime.observability.lifecycle_events` over the task
table) plus an optional ``stats`` callback (the engine passes
``Runtime.stats``), and costs nothing until something goes wrong —
workflow kill/abort, a hang watchdog trip, or ``SIGTERM`` on a
service.  Then it **dumps** a JSON file: the last ``capacity`` rows
(``n_dropped`` counts the older ones left out), the final ``stats``,
the reason, and identifying fields (pid, runtime name, wall-clock
time).  The dump is the black box a crashed run leaves behind;
``repro logs <dump.json>`` renders it.

Enable per-runtime with ``RuntimeConfig(flightrec_dir=...)`` /
``REPRO_FLIGHTREC=<dir>`` (the engine then dumps automatically on
kill/abort), or construct one explicitly over any source of rows.
Module-level :func:`dump_all` walks every live recorder — the hook a
hang watchdog and the service SIGTERM handler call, where no runtime
reference is in scope.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
import weakref
from pathlib import Path
from typing import Any, Callable, Optional

from repro.runtime.atomic_write import atomic_write

__all__ = ["FlightRecorder", "dump_all", "load_dump"]

#: Default dump window: enough to hold the full lifecycle of ~400
#: tasks (5 rows each) while staying a few MB at worst.
DEFAULT_CAPACITY = 2048

#: Seconds a dump waits for the ``stats`` callback, which takes the
#: runtime's locks: a runtime wedged with one held (or a signal handler
#: interrupting the thread that holds it) costs the dump its stats,
#: never the dump itself.
STATS_TIMEOUT = 0.5

_registry: "weakref.WeakSet[FlightRecorder]" = weakref.WeakSet()
_registry_lock = threading.Lock()
#: Numbers every dump of this process: two dumps in one second (abort
#: then kill, engine dump then watchdog ``dump_all``) or of two
#: runtimes sharing a name must not land on one path.
_dump_seq = itertools.count()


class FlightRecorder:
    """Dump-to-JSON of the tail of a lifecycle view.

    *events* returns the time-ordered lifecycle rows as dicts; it is
    called at dump time only, possibly from a signal handler or a
    watchdog thread while the observed runtime is wedged, so it must
    not wait on that runtime's locks.  *stats* may: it is read on a
    helper thread for at most :data:`STATS_TIMEOUT` seconds."""

    def __init__(
        self,
        events: Callable[[], list[dict[str, Any]]],
        capacity: int = DEFAULT_CAPACITY,
        *,
        name: str = "repro",
        dump_dir: str | os.PathLike | None = None,
        stats: Optional[Callable[[], dict[str, Any]]] = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.name = name
        self.dump_dir = Path(dump_dir) if dump_dir is not None else None
        self._events = events
        self._stats = stats
        with _registry_lock:
            _registry.add(self)

    def snapshot(self, reason: str = "manual") -> dict[str, Any]:
        """The dump payload as a dict (no file written)."""
        rows = self._events()
        events = rows[-self.capacity:]
        payload: dict[str, Any] = {
            "format": "repro-flightrec-v1",
            "reason": reason,
            "name": self.name,
            "pid": os.getpid(),
            "wall_time": time.time(),
            "capacity": self.capacity,
            "n_events": len(events),
            "n_dropped": len(rows) - len(events),
            "events": events,
        }
        if self._stats is not None:
            payload.update(_read_stats(self._stats))
        return payload

    def dump(
        self, *, reason: str = "manual", directory: str | os.PathLike | None = None
    ) -> str:
        """Write the payload to a fresh
        ``flightrec-<name>-<pid>-<time>-<n>.json`` under *directory*
        (default: ``dump_dir``, or the cwd) and return its path."""
        target = Path(directory if directory is not None else self.dump_dir or ".")
        target.mkdir(parents=True, exist_ok=True)
        stamp = time.strftime("%Y%m%d-%H%M%S")
        path = target / (
            f"flightrec-{self.name}-{os.getpid()}-{stamp}-{next(_dump_seq)}.json"
        )
        atomic_write(path, json.dumps(self.snapshot(reason), default=repr) + "\n")
        return str(path)

    def close(self) -> None:
        with _registry_lock:
            _registry.discard(self)


def _read_stats(stats: Callable[[], dict[str, Any]]) -> dict[str, Any]:
    """``{"stats": stats()}``, or ``{"stats_error": ...}`` when the
    call raises or outlasts :data:`STATS_TIMEOUT`."""
    box: list[tuple[str, Any]] = []

    def read() -> None:
        try:
            box.append(("stats", stats()))
        except Exception as exc:  # noqa: BLE001 - a dump must not fail
            box.append(("stats_error", repr(exc)))

    reader = threading.Thread(target=read, name="flightrec-stats", daemon=True)
    reader.start()
    reader.join(STATS_TIMEOUT)
    if not box:
        return {"stats_error": f"no stats within {STATS_TIMEOUT}s"}
    key, value = box[0]
    return {key: value}


def dump_all(reason: str, directory: str | os.PathLike | None = None) -> list[str]:
    """Dump every live recorder, into *directory* when given, else each
    into its own ``dump_dir`` (watchdog trips and signal handlers call
    this — they have no runtime reference in scope).  Returns the
    written paths; a recorder whose dump fails is skipped."""
    with _registry_lock:
        recorders = list(_registry)
    written: list[str] = []
    for recorder in recorders:
        try:
            written.append(recorder.dump(reason=reason, directory=directory))
        except Exception:  # noqa: BLE001 - best effort on the way down
            continue
    return written


def load_dump(path: str | os.PathLike) -> dict[str, Any]:
    """Parse a flight-recorder dump, validating its format marker."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("format") != "repro-flightrec-v1":
        raise ValueError(f"{path} is not a flight-recorder dump")
    return payload
