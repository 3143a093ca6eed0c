"""Runtime observability: lifecycle view, metrics, progress, analysis.

The engine (:mod:`repro.runtime.engine`) keeps one record per task
attempt — its ``TaskInstance`` in the task table — and stamps the
attempt's transitions on it (``t_submit``, ``t_ready``, ``t_dispatch``,
``t_body_start``, ``t_end``).  Nothing is pushed to observers;
everything here is shaped from a snapshot of that table when somebody
reads:

* :func:`lifecycle_events` — the ``submitted -> ready -> dispatched ->
  running -> done/failed/ignored/cancelled/restored`` history (plus
  ``retry``), as time-ordered rows.  The crash flight recorder
  (:mod:`repro.runtime.flightrec`) dumps the tail of it.
* :func:`merge_task_metrics` — the task-lifecycle series behind
  ``Runtime.metrics()`` (snapshot dict), ``Runtime.metrics_text()``
  (Prometheus exposition) and ``Runtime.save_metrics(path)`` (atomic
  JSON dump).  ``RuntimeConfig(observability="metrics")``
  (``REPRO_OBSERVABILITY``) turns that view on and attaches a
  :class:`MetricsRegistry` for the series nothing else can know — the
  stream stages' manual writes, and uptime.
  ``obs.metrics_overhead_frac`` in ``bench/`` measures a run with the
  flag on, end to end (see ``bench/README.md``).
* :class:`ProgressReporter` — a live running/done/failed + ETA line on
  stderr (or a callback), enabled with ``observability="progress"``;
  the engine ticks it as attempts finish and it counts the table at
  render time.

Independent of the table, this module analyses finished
:class:`~repro.runtime.tracing.Trace` objects: :func:`critical_path`
finds the longest duration-weighted dependency chain (what bounds the
makespan no matter how many workers are added) and
:func:`summarize_trace` breaks a run into makespan vs. work vs.
queue-wait vs. runtime overhead.  ``python -m repro trace`` is the CLI
front-end for both.
"""

from __future__ import annotations

import collections
import dataclasses
import json
from bisect import bisect_left
import sys
import threading
import time
from typing import Any, Callable, Iterable

from repro.runtime.model import PENDING, TERMINAL_STATES
from repro.runtime.tracing import Trace, TaskRecord, overhead_of, queue_wait_of

# ----------------------------------------------------------------------
# lifecycle row kinds
# ----------------------------------------------------------------------
SUBMITTED = "submitted"
READY = "ready"
DISPATCHED = "dispatched"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
IGNORED = "ignored"
CANCELLED = "cancelled"
RESTORED = "restored"
#: A failed attempt was resubmitted as a fresh DAG node.
RETRY = "retry"

#: Kinds after which the attempt never changes state again.
TERMINAL_KINDS = frozenset({DONE, FAILED, IGNORED, CANCELLED, RESTORED})

#: Valid ``RuntimeConfig(observability=...)`` flags.
OBSERVABILITY_FLAGS = ("metrics", "progress")


def parse_flags(raw: str | None) -> frozenset[str]:
    """Parse an ``observability`` config string into a flag set.

    Accepts a comma/space-separated subset of ``metrics``/``progress``,
    or ``all`` for every flag; ``""``/``None``/``off`` disable
    everything.  Raises :class:`ValueError` on unknown flags (config
    validation surfaces typos instead of silently observing nothing).
    """
    if not raw:
        return frozenset()
    tokens = [t for t in raw.replace(",", " ").split() if t]
    flags: set[str] = set()
    for token in tokens:
        t = token.strip().lower()
        if t in ("off", "none"):
            continue
        if t == "all":
            flags.update(OBSERVABILITY_FLAGS)
        elif t in OBSERVABILITY_FLAGS:
            flags.add(t)
        else:
            raise ValueError(
                f"unknown observability flag {token!r}; expected a subset "
                f"of {OBSERVABILITY_FLAGS} (or 'all'/'off')"
            )
    return frozenset(flags)


#: Keys of one lifecycle row, in the ``repro-flightrec-v1`` dump's order.
_ROW_KEYS = (
    "kind", "t", "task_id", "root_id", "name", "attempt", "state", "pid",
    "worker", "retry_of", "ran", "duration", "queue_wait", "overhead",
)


def lifecycle_events(attempts: Iterable) -> list[dict[str, Any]]:
    """The lifecycle history of *attempts* — a snapshot of the runtime's
    task table, one ``TaskInstance`` per attempt — as time-ordered rows
    in the flight recorder's dump schema.

    Nothing is recorded per transition: each attempt's ``submitted``
    (after ``retry`` on a resubmission), ``ready``, ``dispatched``,
    ``running`` and terminal row (its terminal state, or ``restored``
    for a replayed attempt, whose state is ``"done"``) is rebuilt from
    the stamps the engine leaves on the instance, so a live attempt
    contributes the rows it has reached.  ``t`` is on the clock of
    :class:`~repro.runtime.tracing.TaskRecord`; ``state`` is the
    attempt's state at that transition; ``worker`` is known from
    dispatch on; ``pid`` and — when the body ran (``ran``) —
    ``duration`` / ``queue_wait`` / ``overhead`` sit on the terminal
    row.  A sequential run has no ``ready`` rows; under threads every
    attempt that ran has exactly one, no later than its
    ``dispatched`` row."""
    rows: list[tuple] = []

    def add(inst, kind, t, state_then, pid=None, worker=None, ran=False, spans=(None,) * 3):
        rows.append(
            (kind, t, inst.task_id, inst.root_id, inst.name, inst.attempt, state_then,
             pid, worker, inst.retry_of, ran, *spans)
        )

    for inst in attempts:
        state, t_body, t_end = inst.state, inst.t_body_start, inst.t_end
        worker, ran = inst.worker_name, t_body is not None
        if inst.retry_of is not None:
            add(inst, RETRY, inst.t_submit, PENDING)
        add(inst, SUBMITTED, inst.t_submit, PENDING)
        if inst.t_ready is not None:
            add(inst, READY, inst.t_ready, READY)
        if inst.t_dispatch is not None:
            add(inst, DISPATCHED, inst.t_dispatch, RUNNING, None, worker)
        if ran:
            add(inst, RUNNING, t_body, RUNNING, None, worker, True)
        # ``try_cancel`` flips the state before the engine stamps t_end
        if state in TERMINAL_STATES and t_end is not None:
            kind = RESTORED if inst.status == RESTORED else state
            spans = (None,) * 3
            if ran:
                spans = (
                    t_end - t_body,
                    queue_wait_of(inst.t_ready, inst.t_dispatch),
                    overhead_of(inst.t_submit, inst.t_ready, inst.t_dispatch, t_body),
                )
            add(inst, kind, t_end, state, inst.worker_pid, worker, ran, spans)
    # Stable: rows of one attempt that share a stamp keep lifecycle order.
    rows.sort(key=lambda row: row[1])
    return [dict(zip(_ROW_KEYS, row)) for row in rows]


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
#: Fixed log-scale histogram bounds (seconds): 1-2.5-5 per decade from
#: 1 µs to 500 s.  Fixed bounds keep every exposition mergeable across
#: runs and processes (the Prometheus histogram contract).
DURATION_BUCKETS: tuple[float, ...] = tuple(
    m * 10.0**e for e in range(-6, 3) for m in (1.0, 2.5, 5.0)
)


class Histogram:
    """A fixed-bucket time histogram (not thread-safe on its own; the
    registry serialises access)."""

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: tuple[float, ...] = DURATION_BUCKETS):
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last bucket = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        # bisect_left gives the first bound >= value, i.e. the smallest
        # bucket whose ``le`` covers it (boundary values land low).
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def snapshot(self) -> dict[str, Any]:
        cumulative: list[list[Any]] = []
        running = 0
        for bound, n in zip(self.bounds, self.counts):
            running += n
            cumulative.append([bound, running])
        cumulative.append(["+Inf", running + self.counts[-1]])
        return {"buckets": cumulative, "sum": self.sum, "count": self.count}


_LabelKey = tuple[tuple[str, str], ...]


def _labels_key(labels: dict[str, str]) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Manually written counters, gauges and histograms, plus uptime.

    One instance is attached per Runtime when
    ``RuntimeConfig(observability="metrics")`` is set; subsystems that
    instrument themselves (the stream stages) write through
    ``Runtime.metrics_registry``.  It holds only what no other record
    can answer: the task-lifecycle series are not kept here but shaped
    from the task table by :func:`merge_task_metrics` when
    ``Runtime.metrics()`` is read.  All series use the ``repro_``
    namespace and Prometheus naming conventions so
    :func:`to_prometheus` output scrapes cleanly.
    """

    def __init__(self, clock=time.monotonic):
        self._lock = threading.Lock()
        self._clock = clock
        self.started_at = clock()
        self._counters: dict[tuple[str, _LabelKey], float] = {}
        self._gauges: dict[tuple[str, _LabelKey], float] = {}
        self._hists: dict[tuple[str, _LabelKey], Histogram] = {}

    # -- manual instrumentation ----------------------------------------
    def inc(self, name: str, value: float = 1.0, **labels: str) -> None:
        key = (name, _labels_key(labels))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        with self._lock:
            self._gauges[(name, _labels_key(labels))] = value

    def observe(self, name: str, value: float, **labels: str) -> None:
        key = (name, _labels_key(labels))
        with self._lock:
            hist = self._hists.get(key)
            if hist is None:
                hist = self._hists[key] = Histogram()
            hist.observe(value)

    # -- snapshot -------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """A JSON-serialisable point-in-time view of every series."""
        with self._lock:
            uptime = max(self._clock() - self.started_at, 1e-9)
            counters = [
                {"name": name, "labels": dict(labels), "value": value}
                for (name, labels), value in sorted(self._counters.items())
            ]
            gauges = [
                {"name": name, "labels": dict(labels), "value": value}
                for (name, labels), value in sorted(self._gauges.items())
            ]
            hists = [
                {"name": name, "labels": dict(labels), **hist.snapshot()}
                for (name, labels), hist in sorted(self._hists.items())
            ]
        return {
            "enabled": True,
            "uptime_seconds": uptime,
            "counters": counters,
            "gauges": gauges,
            "histograms": hists,
        }


def empty_snapshot() -> dict[str, Any]:
    """The snapshot shape of a runtime with metrics disabled."""
    return {
        "enabled": False,
        "uptime_seconds": 0.0,
        "counters": [],
        "gauges": [],
        "histograms": [],
    }


def _upsert_series(
    snapshot: dict[str, Any], section: str, name: str, labels: dict[str, str], value: float
) -> None:
    """Set one series in a snapshot section, replacing an existing
    entry with the same ``(name, labels)`` instead of appending a
    duplicate — this is what makes the ``merge_*_stats`` helpers
    idempotent: re-merging the same stats overwrites, never
    double-counts."""
    for series in snapshot[section]:
        if series["name"] == name and series["labels"] == labels:
            series["value"] = value
            return
    snapshot[section].append({"name": name, "labels": labels, "value": value})


def _series_key(series: dict[str, Any]) -> tuple[str, _LabelKey]:
    return series["name"], _labels_key(series["labels"])


def merge_task_metrics(
    snapshot: dict[str, Any], attempts: Iterable, max_workers: int
) -> dict[str, Any]:
    """Shape the task-lifecycle series from *attempts* — a snapshot of
    the runtime's task table, one ``TaskInstance`` per attempt — and
    fold them into *snapshot*: tasks by terminal state, submissions,
    enqueues, retries, restores, failures by task name, the running
    gauge, busy seconds per worker (and the utilization they imply over
    the snapshot's uptime and *max_workers*), and the duration /
    queue-wait / overhead histograms of the attempts whose body ran.
    A counter or histogram exists once something was counted into it.

    ``Runtime.stats()`` reads the same table, so after a drained run
    ``repro_tasks_total{state=S}`` is its ``by_state[S]``,
    ``repro_tasks_submitted_total`` its ``n_tasks``, and the retry and
    restore counters its ``retries`` and ``restored``."""
    counters: collections.Counter = collections.Counter()
    hists: dict[tuple[str, _LabelKey], Histogram] = collections.defaultdict(Histogram)
    running = 0
    busy = 0.0
    for inst in attempts:
        counters["repro_tasks_submitted_total", ()] += 1
        if inst.t_ready is not None:
            counters["repro_tasks_enqueued_total", ()] += 1
        if inst.retry_of is not None:
            counters["repro_retries_total", ()] += 1
        state, t_body, t_end = inst.state, inst.t_body_start, inst.t_end
        if state not in TERMINAL_STATES:
            if t_body is not None:
                running += 1
            continue
        counters["repro_tasks_total", (("state", state),)] += 1
        if inst.status == RESTORED:
            counters["repro_tasks_restored_total", ()] += 1
        if state == FAILED:
            counters["repro_task_failures_total", (("task", inst.name),)] += 1
        if t_body is None or t_end is None:
            continue  # the body never ran: restored, cancelled, failed before it
        duration = t_end - t_body
        busy += duration
        worker = inst.worker_name or "main"
        counters["repro_worker_busy_seconds_total", (("worker", worker),)] += duration
        hists["repro_task_duration_seconds", (("task", inst.name),)].observe(duration)
        hists["repro_task_queue_wait_seconds", ()].observe(
            queue_wait_of(inst.t_ready, inst.t_dispatch)
        )
        hists["repro_task_overhead_seconds", ()].observe(
            overhead_of(inst.t_submit, inst.t_ready, inst.t_dispatch, t_body)
        )

    snapshot["counters"] += [
        {"name": name, "labels": dict(labels), "value": float(value)}
        for (name, labels), value in counters.items()
    ]
    snapshot["histograms"] += [
        {"name": name, "labels": dict(labels), **hist.snapshot()}
        for (name, labels), hist in hists.items()
    ]
    gauges = snapshot["gauges"]
    gauges.append({"name": "repro_tasks_running", "labels": {}, "value": float(running)})
    for section in ("counters", "gauges", "histograms"):
        snapshot[section].sort(key=_series_key)
    utilization = busy / (snapshot["uptime_seconds"] * max_workers)
    gauges.append({"name": "repro_worker_utilization", "labels": {}, "value": utilization})
    return snapshot


def merge_backend_stats(snapshot: dict[str, Any], backend_stats: dict) -> dict[str, Any]:
    """Fold an :class:`ExecutorBackend`'s counters into *snapshot* as
    ``repro_backend_*`` series (dispatch/fallback counts, serialization
    seconds), so one exposition covers scheduler and backend.
    Idempotent: merging the same stats twice overwrites in place."""
    snapshot["backend"] = dict(backend_stats)
    for key, value in sorted(backend_stats.items()):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        if key in ("max_workers", "pool_workers"):
            _upsert_series(
                snapshot, "gauges", f"repro_backend_{key}", {}, float(value)
            )
        else:
            _upsert_series(
                snapshot, "counters", f"repro_backend_{key}_total", {}, float(value)
            )
    return snapshot


#: Store stats that are point-in-time occupancy, not monotonic counts.
_STORE_GAUGES = frozenset({"n_objects", "bytes_resident"})


def merge_store_stats(snapshot: dict[str, Any], store_stats: dict) -> dict[str, Any]:
    """Fold an :class:`~repro.runtime.store.ObjectStore`'s stats into
    *snapshot* as ``repro_store_*`` series (puts/gets/releases as
    counters, occupancy as gauges), so one exposition covers the data
    plane even when the backend does not carry the store itself."""
    snapshot["store"] = dict(store_stats)
    for key, value in sorted(store_stats.items()):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        if key in _STORE_GAUGES:
            _upsert_series(snapshot, "gauges", f"repro_store_{key}", {}, float(value))
        else:
            _upsert_series(
                snapshot, "counters", f"repro_store_{key}_total", {}, float(value)
            )
    return snapshot


def merge_service_stats(snapshot: dict[str, Any], service_stats: dict) -> dict[str, Any]:
    """Fold a durable queue service's stats into *snapshot* as
    ``repro_service_*`` series.

    Per-tenant occupancy (``service_stats["tenants"]``: tenant →
    state → count) becomes labelled gauges — ``queue_depth`` is the
    deliverable backlog, ``leases_active`` the in-flight lease count —
    and the service's monotonic tallies (``service_stats["counters"]``:
    claims, completions, lease expirations, duplicates discarded, ...)
    become ``_total`` counters, so one exposition covers the queue next
    to the scheduler and data plane."""
    snapshot["service"] = {
        "tenants": {t: dict(v) for t, v in service_stats.get("tenants", {}).items()},
        "counters": dict(service_stats.get("counters", {})),
    }
    for tenant, states in sorted(service_stats.get("tenants", {}).items()):
        _upsert_series(
            snapshot,
            "gauges",
            "repro_service_queue_depth",
            {"tenant": tenant},
            float(states.get("queued", 0)),
        )
        _upsert_series(
            snapshot,
            "gauges",
            "repro_service_leases_active",
            {"tenant": tenant},
            float(states.get("leased", 0)),
        )
    for key, value in sorted(service_stats.get("counters", {}).items()):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        _upsert_series(
            snapshot, "counters", f"repro_service_{key}_total", {}, float(value)
        )
    return snapshot


def save_metrics_json(snapshot: dict[str, Any], path) -> None:
    """Atomically dump a metrics snapshot to *path* as JSON."""
    from repro.runtime.atomic_write import atomic_write

    atomic_write(path, json.dumps(snapshot, indent=2, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text format: backslash,
    double quote and newline (a raw newline would split the sample
    line and corrupt the whole exposition)."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _unescape_label_value(value: str) -> str:
    out: list[str] = []
    i, n = 0, len(value)
    while i < n:
        ch = value[i]
        if ch == "\\" and i + 1 < n:
            nxt = value[i + 1]
            if nxt == "n":
                out.append("\n")
            elif nxt in ('"', "\\"):
                out.append(nxt)
            else:  # unknown escape: keep verbatim
                out.append(ch)
                out.append(nxt)
            i += 2
            continue
        out.append(ch)
        i += 1
    return "".join(out)


def _format_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label_value(str(v))}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def to_prometheus(snapshot: dict[str, Any]) -> str:
    """Render a snapshot as the Prometheus text exposition format."""
    lines: list[str] = []
    seen_types: set[str] = set()

    def type_line(name: str, kind: str) -> None:
        if name not in seen_types:
            seen_types.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for series in snapshot.get("counters", ()):
        type_line(series["name"], "counter")
        lines.append(
            f"{series['name']}{_format_labels(series['labels'])} {series['value']:g}"
        )
    for series in snapshot.get("gauges", ()):
        type_line(series["name"], "gauge")
        lines.append(
            f"{series['name']}{_format_labels(series['labels'])} {series['value']:g}"
        )
    for series in snapshot.get("histograms", ()):
        name = series["name"]
        type_line(name, "histogram")
        labels = dict(series["labels"])
        for bound, count in series["buckets"]:
            le = "+Inf" if bound == "+Inf" else f"{bound:g}"
            lines.append(
                f"{name}_bucket{_format_labels({**labels, 'le': le})} {count}"
            )
        lines.append(f"{name}_sum{_format_labels(labels)} {series['sum']:g}")
        lines.append(f"{name}_count{_format_labels(labels)} {series['count']}")
    return "\n".join(lines) + "\n"


def _parse_label_body(body: str) -> dict[str, str]:
    """Scan one ``k="v",k2="v2"`` label body, honouring the escape
    sequences :func:`_escape_label_value` emits (``\\\\``, ``\\"``,
    ``\\n``) — a naive split on ``,`` would break on any value
    containing a comma, quote or brace."""
    labels: dict[str, str] = {}
    i, n = 0, len(body)
    while i < n:
        eq = body.find("=", i)
        if eq < 0:
            raise ValueError(f"bad label segment {body[i:]!r}")
        key = body[i:eq].strip()
        if not key:
            raise ValueError(f"empty label name in {body!r}")
        if eq + 1 >= n or body[eq + 1] != '"':
            raise ValueError(f"unquoted label value for {key!r}")
        j = eq + 2
        raw: list[str] = []
        while j < n:
            ch = body[j]
            if ch == "\\" and j + 1 < n:
                raw.append(ch)
                raw.append(body[j + 1])
                j += 2
                continue
            if ch == '"':
                break
            raw.append(ch)
            j += 1
        else:
            raise ValueError(f"unterminated label value for {key!r}")
        if j >= n or body[j] != '"':
            raise ValueError(f"unterminated label value for {key!r}")
        labels[key] = _unescape_label_value("".join(raw))
        j += 1
        if j < n:
            if body[j] != ",":
                raise ValueError(f"expected ',' after label {key!r}")
            j += 1
        i = j
    return labels


def parse_prometheus(text: str) -> dict[tuple[str, _LabelKey], float]:
    """Parse a text exposition back into ``(name, labels) -> value``.

    A deliberately strict mini-parser used by the ``obs`` CI gate and
    the tests to prove the exposition is well-formed; raises
    :class:`ValueError` on any malformed line."""
    out: dict[tuple[str, _LabelKey], float] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, _, value_text = line.rpartition(" ")
        if not head:
            raise ValueError(f"line {lineno}: no value in {line!r}")
        try:
            value = float(value_text)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value {value_text!r}") from exc
        if "{" in head:
            name, _, rest = head.partition("{")
            if not rest.endswith("}"):
                raise ValueError(f"line {lineno}: unterminated labels in {line!r}")
            try:
                labels = _parse_label_body(rest[:-1])
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            key = (name, _labels_key(labels))
        else:
            key = (head, ())
        if not key[0].replace("_", "").replace(":", "").isalnum():
            raise ValueError(f"line {lineno}: bad metric name {key[0]!r}")
        out[key] = value
    return out


# ----------------------------------------------------------------------
# live progress
# ----------------------------------------------------------------------
class ProgressReporter:
    """Live workflow progress.

    Renders ``done/submitted`` counts, running/failed tallies, task
    rate and an ETA — to *stream* (default ``sys.stderr``) as a
    ``\\r``-rewritten line, or to *callback* as snapshot dicts (no
    terminal output when a callback is given).  :meth:`tick` only paces
    the rendering, throttled to one line per *min_interval* seconds; the
    numbers are counted at render time from *attempts*, a callable
    returning the runtime's task table (one ``TaskInstance`` per
    attempt).  :meth:`close` emits the final state unconditionally."""

    def __init__(
        self,
        attempts: Callable[[], Iterable],
        stream=None,
        callback: Callable[[dict], None] | None = None,
        min_interval: float = 0.1,
        clock=time.monotonic,
        label: str = "repro",
    ):
        self._attempts = attempts
        self._stream = stream
        self._callback = callback
        self._min_interval = min_interval
        self._clock = clock
        self._label = label
        self._t0 = clock()
        self._last_render = 0.0

    def tick(self) -> None:
        """Render if *min_interval* has passed (the engine calls this
        as an attempt becomes terminal)."""
        # Unlocked: two threads passing the throttle together render
        # twice, which a progress line can afford.
        now = self._clock()
        if now - self._last_render < self._min_interval:
            return
        self._last_render = now
        self._render(self.snapshot())

    # -- snapshots ------------------------------------------------------
    def snapshot(self) -> dict:
        c = dict.fromkeys(
            "submitted running done failed ignored cancelled restored retries".split(), 0
        )
        for inst in self._attempts():
            c["submitted"] += 1
            if inst.retry_of is not None:
                c["retries"] += 1
            state = inst.state
            if state in TERMINAL_STATES:
                c[state] += 1  # a restored attempt ends "done"
                if inst.status == RESTORED:
                    c["restored"] += 1
            elif inst.t_body_start is not None:
                c["running"] += 1
        finished = c["done"] + c["failed"] + c["ignored"] + c["cancelled"]
        elapsed = max(self._clock() - self._t0, 1e-9)
        rate = finished / elapsed
        remaining = c["submitted"] - finished
        eta = remaining / rate if rate > 0 and remaining else 0.0
        return {
            **c,
            "finished": finished,
            "elapsed": elapsed,
            "rate": rate,
            "eta": eta,
        }

    # -- rendering ------------------------------------------------------
    def _render(self, snap: dict, final: bool = False) -> None:
        if self._callback is not None:
            self._callback(snap)
            return
        stream = self._stream if self._stream is not None else sys.stderr
        parts = [
            f"{self._label}: {snap['finished']}/{snap['submitted']} tasks",
            f"{snap['running']} running",
        ]
        if snap["failed"]:
            parts.append(f"{snap['failed']} failed")
        if snap["cancelled"]:
            parts.append(f"{snap['cancelled']} cancelled")
        if snap["restored"]:
            parts.append(f"{snap['restored']} restored")
        parts.append(f"{snap['rate']:.0f} t/s")
        if not final and snap["eta"]:
            parts.append(f"eta {snap['eta']:.1f}s")
        line = " · ".join(parts)
        try:
            stream.write("\r" + line.ljust(78))
            if final:
                stream.write("\n")
            stream.flush()
        except (OSError, ValueError):
            pass  # closed stream: progress is best-effort

    def close(self) -> None:
        """Render the final state (with a newline on terminal streams)."""
        self._render(self.snapshot(), final=True)


# ----------------------------------------------------------------------
# trace analysis: critical path & summary
# ----------------------------------------------------------------------
@dataclasses.dataclass
class CriticalPath:
    """The longest duration-weighted dependency chain of a trace.

    ``length`` (the sum of chain durations) lower-bounds the makespan
    of any re-execution of the same DAG, however many workers are
    available; ``makespan - length`` is the headroom scheduling can
    still recover.  For a real trace, ``length <= makespan`` (chain
    tasks cannot overlap) and ``length >= max(single task duration)``.
    """

    records: list[TaskRecord]
    length: float
    makespan: float
    work: float

    @property
    def task_ids(self) -> list[int]:
        return [r.task_id for r in self.records]

    def by_name(self) -> dict[str, float]:
        """Seconds each task name contributes to the chain, largest first."""
        out: dict[str, float] = {}
        for rec in self.records:
            out[rec.name] = out.get(rec.name, 0.0) + rec.duration
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def critical_path(trace: Trace) -> CriticalPath:
    """Longest duration-weighted chain through the recorded DAG.

    Dependencies always point at earlier task ids (retries included:
    the resubmitted node depends on the failed attempt, so lost time
    sits on the chain), so one ascending pass computes the longest
    path ending at every node."""
    records = {r.task_id: r for r in trace}
    longest: dict[int, float] = {}
    predecessor: dict[int, int | None] = {}
    for tid in sorted(records):
        rec = records[tid]
        best, best_dep = 0.0, None
        for dep in rec.deps:
            via = longest.get(dep)
            # the first of the longest; a zero-length chain (a restored
            # dependency) is still a predecessor
            if via is not None and (best_dep is None or via > best):
                best, best_dep = via, dep
        longest[tid] = best + rec.duration
        predecessor[tid] = best_dep
    if not longest:
        return CriticalPath(records=[], length=0.0, makespan=0.0, work=0.0)
    end = max(longest, key=lambda tid: longest[tid])
    chain: list[TaskRecord] = []
    cursor: int | None = end
    while cursor is not None:
        chain.append(records[cursor])
        cursor = predecessor[cursor]
    chain.reverse()
    return CriticalPath(
        records=chain,
        length=longest[end],
        makespan=trace.makespan,
        work=trace.total_task_time,
    )


def summarize_trace(trace: Trace) -> dict[str, Any]:
    """Makespan / work / wait / overhead breakdown of a finished trace."""
    by_status: dict[str, int] = {}
    by_name: dict[str, dict[str, float]] = {}
    queue_wait = 0.0
    overhead = 0.0
    for rec in trace:
        by_status[rec.status] = by_status.get(rec.status, 0) + 1
        entry = by_name.setdefault(
            rec.name, {"count": 0, "total": 0.0, "max": 0.0}
        )
        entry["count"] += 1
        entry["total"] += rec.duration
        entry["max"] = max(entry["max"], rec.duration)
        queue_wait += rec.queue_wait
        overhead += rec.overhead
    for entry in by_name.values():
        entry["mean"] = entry["total"] / entry["count"] if entry["count"] else 0.0
    cp = critical_path(trace)
    makespan = trace.makespan
    work = trace.total_task_time
    return {
        "n_records": len(trace),
        "n_executed": trace.n_executed,
        "n_restored": trace.n_restored,
        "n_failed_attempts": trace.n_failed_attempts,
        "makespan": makespan,
        "work": work,
        "queue_wait": queue_wait,
        "overhead": overhead,
        "parallelism": (work / makespan) if makespan > 0 else 0.0,
        "critical_path": cp.length,
        "critical_path_tasks": len(cp.records),
        "by_status": by_status,
        "by_name": dict(
            sorted(by_name.items(), key=lambda kv: -kv[1]["total"])
        ),
    }


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.1f}µs"


def format_summary(summary: dict[str, Any]) -> str:
    """Human-readable rendering of :func:`summarize_trace` output."""
    lines = [
        f"records        : {summary['n_records']} "
        f"(executed {summary['n_executed']}, restored {summary['n_restored']}, "
        f"failed attempts {summary['n_failed_attempts']})",
        f"makespan       : {_fmt_s(summary['makespan'])}",
        f"work           : {_fmt_s(summary['work'])} "
        f"(parallelism {summary['parallelism']:.2f}x)",
        f"queue wait     : {_fmt_s(summary['queue_wait'])}",
        f"runtime overhd : {_fmt_s(summary['overhead'])}",
        f"critical path  : {_fmt_s(summary['critical_path'])} "
        f"across {summary['critical_path_tasks']} tasks",
        "by task name:",
    ]
    for name, entry in summary["by_name"].items():
        lines.append(
            f"  {name:<24} x{int(entry['count']):<5} "
            f"total {_fmt_s(entry['total']):>10}  "
            f"mean {_fmt_s(entry['mean']):>10}  max {_fmt_s(entry['max']):>10}"
        )
    return "\n".join(lines)


def format_critical_path(cp: CriticalPath, top: int | None = None) -> str:
    """Human-readable rendering of a :class:`CriticalPath`."""
    lines = [
        f"critical path: {_fmt_s(cp.length)} across {len(cp.records)} tasks "
        f"(makespan {_fmt_s(cp.makespan)}, "
        f"{(cp.length / cp.makespan * 100) if cp.makespan else 0:.0f}% of makespan)",
        "attribution by task name:",
    ]
    for name, seconds in cp.by_name().items():
        lines.append(f"  {name:<24} {_fmt_s(seconds):>10}")
    lines.append("chain (oldest first):")
    shown: Iterable[TaskRecord] = cp.records if top is None else cp.records[-top:]
    for rec in shown:
        lines.append(
            f"  #{rec.task_id:<5} {rec.name:<24} {_fmt_s(rec.duration):>10}"
            + (f"  [{rec.status}]" if rec.status != "done" else "")
        )
    return "\n".join(lines)
