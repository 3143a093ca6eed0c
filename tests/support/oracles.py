"""Oracles only tests call: a metric lookup, the data-plane
reconciliation of a drained runtime and the hang watchdog the randomized
runtime and stream tests run their steps under."""

from __future__ import annotations

import sys
import threading
import time
import traceback
from typing import Any

from repro.runtime.flightrec import dump_all
from repro.runtime.tracing import Trace


def reconcile_store(runtime, trace: Trace | None = None) -> list[str]:
    """Cross-check the data plane of a drained runtime: per-attempt
    ``bytes_moved``/``bytes_saved`` in the trace must sum to the
    backend's cumulative counters, and the derived hit rate must match
    the raw hit/miss tallies.  Returns discrepancy descriptions (empty
    = consistent).

    Only meaningful after a clean drain with ``collect_trace=True`` and
    no serialization/result fallbacks (an inline fallback re-run after
    a worker attach legitimately leaves the attach uncounted in the
    trace)."""
    backend_stats = runtime.stats()["backend_stats"]
    if not backend_stats.get("store_enabled"):
        return ["no object store is attached to the backend"]
    if not runtime.config.collect_trace:
        return ["trace collection is disabled on this runtime"]
    trace = trace if trace is not None else runtime.trace()
    problems: list[str] = []
    for attr, counter in (
        ("total_bytes_moved", "store_bytes_moved"),
        ("total_bytes_saved", "store_bytes_saved"),
    ):
        from_trace = getattr(trace, attr)
        from_backend = backend_stats.get(counter, 0)
        if from_trace != from_backend:
            problems.append(
                f"trace {attr} is {from_trace}, backend {counter} says {from_backend}"
            )
    hits = backend_stats.get("store_hits", 0)
    misses = backend_stats.get("store_misses", 0)
    rate = backend_stats.get("store_hit_rate", 0.0)
    expected = hits / (hits + misses) if hits + misses else 0.0
    if abs(rate - expected) > 1e-9:
        problems.append(
            f"store_hit_rate is {rate:g}, hits/misses say {expected:g}"
        )
    return problems


def metric_value(
    snapshot: dict[str, Any], name: str, default: float | None = None, **labels: str
) -> float | None:
    """Value of one series in a snapshot (counters and gauges)."""
    want = {k: str(v) for k, v in labels.items()}
    for section in ("counters", "gauges"):
        for series in snapshot.get(section, ()):
            if series["name"] == name and series["labels"] == want:
                return series["value"]
    return default


def _dump_stacks() -> str:
    names = {t.ident: t.name for t in threading.enumerate()}
    lines = []
    for tid, frame in sys._current_frames().items():
        lines.append(f"--- thread {names.get(tid, tid)} ---")
        lines.append("".join(traceback.format_stack(frame)))
    return "\n".join(lines)


def run_under_watchdog(fn, timeout: float, label: str) -> dict[str, Any]:
    """Run ``fn()`` on a daemon thread bounded by *timeout* seconds.

    Returns an outcome dict: ``ok`` and ``duration`` always; ``value``
    on success; ``error``/``trace`` when *fn* raised; ``problems``
    (human-readable lines, including a full stack dump of every live
    thread on a hang) whenever ``ok`` is false.  On a hang every live
    flight recorder is dumped (``flightrec_dumps``: the lifecycle rows
    leading into it) and the thread is abandoned, not killed — the
    caller keeps moving and reports the hang instead of wedging.  The
    classic signature of a lost wakeup is every thread parked in
    ``Condition.wait``.  The randomized runtime tests and the stream
    scenarios run their steps through this.
    """
    outcome: dict[str, Any] = {}

    def target() -> None:
        try:
            outcome["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - relayed to the outcome
            outcome["error"] = exc
            outcome["trace"] = traceback.format_exc()

    thread = threading.Thread(target=target, name=label, daemon=True)
    t0 = time.perf_counter()
    thread.start()
    thread.join(timeout)
    duration = time.perf_counter() - t0
    if thread.is_alive():
        dumps = dump_all(f"watchdog: {label}")
        problems = [f"HANG: {label} did not finish within {timeout}s", _dump_stacks()]
        if dumps:
            problems.append("flight recorder dumps: " + ", ".join(dumps))
        return {"ok": False, "duration": duration, "problems": problems, "flightrec_dumps": dumps}
    if "error" in outcome:
        return {
            "ok": False,
            "duration": duration,
            "error": outcome["error"],
            "trace": outcome["trace"],
            "problems": [f"{label} raised {outcome['error']!r}", outcome["trace"]],
        }
    return {"ok": True, "duration": duration, "value": outcome.get("value")}
