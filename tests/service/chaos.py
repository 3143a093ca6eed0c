"""Seeded chaos harness for the queue service.

Three scenarios, run by the chaos suite (``test_chaos.py`` beside this
module, which ``check.sh service`` runs):

``run_crash_recovery_scenario``
    The full kill-9 path, cross-process: a real server subprocess
    (``python -m repro serve``) works a seeded multi-tenant workload
    whose flaky tasks fail their first attempt; once a failed attempt
    has been redelivered and a long task holds a lease, the server is
    ``SIGKILL``-ed; a second server on the same data directory recovers
    from the WAL and finishes under ``--until-idle``.
``run_lease_expiry_scenario``
    The missed-heartbeat path, in-process: the harness claims the task
    itself and never heartbeats — a delivery gone dark — so the
    service's sweeper expires the lease and the service's redelivery
    completes; then the dark delivery wakes, finds the recorded result
    and deduplicates instead of re-running.
``run_traced_recovery_scenario``
    The distributed-tracing acceptance path: a submission's trace id
    must survive a ``kill -9`` — the exported OTLP document shows one
    trace spanning the client submit span, the killed incarnation's
    interrupted delivery, the recovered incarnation's completed
    delivery, and the embedded runtime's task span with its pid.

The first two verify the invariants the service exists for, via the
results table and the provenance log: **zero lost tasks** (every submission
reaches ``done``) and **zero duplicate side-effecting executions**
(each task's effect line appears exactly once).
"""

from __future__ import annotations

import dataclasses
import os
import random
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any

from repro.service.client import ServiceClient

__all__ = [
    "ChaosReport",
    "run_crash_recovery_scenario",
    "run_lease_expiry_scenario",
    "run_traced_recovery_scenario",
]

_DEMO = "repro.service.demo"


@dataclasses.dataclass
class ChaosReport:
    """Outcome of one chaos scenario."""

    scenario: str
    seed: int
    ok: bool
    n_tasks: int
    problems: list[str]
    details: dict[str, Any]

    def line(self) -> str:
        status = "ok" if self.ok else "FAIL"
        head = f"chaos {self.scenario:<16} seed={self.seed:<4} tasks={self.n_tasks:>3}  {status}"
        if self.problems:
            head += "".join(f"\n    - {p}" for p in self.problems)
        return head


def _src_pythonpath() -> str:
    """PYTHONPATH for server subprocesses: wherever this repro import
    came from, plus the caller's existing entries."""
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    existing = os.environ.get("PYTHONPATH", "")
    return src if not existing else src + os.pathsep + existing


def _spawn_server(data_dir: Path, *extra: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=_src_pythonpath())
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--data-dir", str(data_dir), *extra],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _await(predicate, deadline: float, poll: float = 0.05) -> bool:
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll)
    return False


def _verify_no_lost_no_duplicates(
    client: ServiceClient,
    task_ids: list[int],
    effects: Path,
    expected_lines: list[str],
    problems: list[str],
) -> None:
    """The acceptance invariants, checked from durable state."""
    for task_id in task_ids:
        row = client.status(task_id)
        if row is None:
            problems.append(f"task {task_id} vanished")
        elif row["state"] != "done":
            problems.append(
                f"task {task_id} ({row['name']}) ended {row['state']!r}, not done "
                f"(attempt {row['attempt']}/{row['max_retries']})"
            )
    # exactly one result row per signature, all ok
    rows = client.db.query(
        "SELECT r.signature, r.status, COUNT(*) AS n FROM results r GROUP BY r.signature"
    )
    for row in rows:
        if row["n"] != 1:  # pragma: no cover - PRIMARY KEY forbids it
            problems.append(f"signature {row['signature'][:12]} has {row['n']} results")
        if row["status"] != "ok":
            problems.append(f"signature {row['signature'][:12]} recorded {row['status']}")
    # each side effect exactly once
    lines = effects.read_text().splitlines() if effects.exists() else []
    counts = Counter(lines)
    for line in expected_lines:
        n = counts.get(line, 0)
        if n != 1:
            problems.append(f"effect {line!r} appeared {n} times (want exactly 1)")
    for line, n in counts.items():
        if line not in expected_lines:
            problems.append(f"unexpected effect line {line!r} (x{n})")


def run_crash_recovery_scenario(
    workdir: str | Path,
    *,
    seed: int = 0,
    n_tasks: int = 10,
    lease_timeout: float = 2.0,
    workers: int = 2,
    timeout: float = 90.0,
) -> ChaosReport:
    """Seeded failing-attempt + kill-9 + restart schedule (see module
    docstring).  *workdir* must be empty or fresh."""
    rng = random.Random(seed)
    workdir = Path(workdir)
    data_dir = workdir / "data"
    effects = workdir / "effects.txt"
    marker = workdir / "marker"
    deadline = time.monotonic() + timeout
    problems: list[str] = []
    details: dict[str, Any] = {}

    client = ServiceClient(data_dir)
    client.ensure_tenant("alpha", quota=2, weight=2.0)
    client.ensure_tenant("beta", quota=1, weight=1.0)

    expected_lines: list[str] = []
    task_ids: list[int] = []
    for i in range(n_tasks):
        line = f"task-{i}"
        task_ids.append(
            client.submit(
                f"{_DEMO}:append_line",
                str(effects),
                line,
                tenant=rng.choice(["alpha", "beta"]),
                priority=rng.randrange(0, 5),
            )
        )
        expected_lines.append(line)
    for i in range(2):
        line = f"flaky-{i}"
        task_ids.append(
            client.submit(
                f"{_DEMO}:flaky_append_line",
                str(effects),
                line,
                1,
                tenant="alpha",
                priority=rng.randrange(0, 5),
            )
        )
        expected_lines.append(line)
    slow_id = client.submit(
        f"{_DEMO}:wait_for_marker_then_append",
        str(effects),
        "slow-0",
        str(marker),
        tenant="beta",
        priority=9,
    )
    task_ids.append(slow_id)
    expected_lines.append("slow-0")

    server_a = _spawn_server(
        data_dir,
        "--workers", str(workers),
        "--lease-timeout", str(lease_timeout),
        "--poll-interval", "0.02",
    )
    try:
        # Kill -9 once the long task is leased mid-workload and a flaky
        # task's failed first attempt has been redelivered.
        def mid_workload() -> bool:
            row = client.status(slow_id)
            if row is None or row["state"] != "leased":
                return False
            return bool(client.counts()["counters"].get("redeliveries"))

        if not _await(mid_workload, deadline):
            problems.append(
                "server A never reached mid-workload state "
                "(long task leased + a failed attempt redelivered)"
            )
        os.kill(server_a.pid, signal.SIGKILL)
        server_a.wait(timeout=10)
        details["killed_server_pid"] = server_a.pid
    finally:
        if server_a.poll() is None:  # pragma: no cover - kill failed
            server_a.kill()
            server_a.wait(timeout=10)

    marker.touch()  # the redelivered long task may now finish

    # Server B: recover from the WAL, drain the backlog, exit.
    server_b = _spawn_server(
        data_dir,
        "--workers", str(workers),
        "--lease-timeout", str(lease_timeout),
        "--poll-interval", "0.02",
        "--until-idle",
    )
    try:
        remaining = max(1.0, deadline - time.monotonic())
        server_b.wait(timeout=remaining)
    except subprocess.TimeoutExpired:
        server_b.kill()
        server_b.wait(timeout=10)
        problems.append("server B did not drain to idle in time")
    if server_b.returncode not in (0, None):
        problems.append(f"server B exited with {server_b.returncode}")

    _verify_no_lost_no_duplicates(client, task_ids, effects, expected_lines, problems)
    stats = client.counts()
    counters = stats["counters"]
    details["counters"] = dict(counters)
    if not counters.get("recoveries"):
        problems.append("no cold-start recovery recorded (kill -9 left no leases?)")
    provenance = client.queue.provenance()
    events = {p["event"] for p in provenance}
    details["events"] = sorted(events)
    if "recovered" not in events:
        problems.append("provenance has no 'recovered' event")
    if not any(
        p["event"] == "requeued" and "flaky_append_line failing" in p["detail"]
        for p in provenance
    ):
        problems.append("provenance shows no redelivery of a failed attempt")
    client.close()
    return ChaosReport(
        scenario="crash-recovery",
        seed=seed,
        ok=not problems,
        n_tasks=len(task_ids),
        problems=problems,
        details=details,
    )


def run_traced_recovery_scenario(
    workdir: str | Path,
    *,
    seed: int = 0,
    lease_timeout: float = 2.0,
    timeout: float = 90.0,
) -> ChaosReport:
    """The distributed-tracing acceptance scenario: one trace id must
    survive a ``kill -9``.

    A client submits a task that stalls on a marker file; server A
    claims it (its ``leased`` row starts the delivery span) and is
    ``SIGKILL``-ed mid-delivery; server B recovers the lease from the
    WAL, redelivers, and drains.  The exported OTLP document must show
    **one trace** containing the client's submit span, server A's
    *interrupted* delivery, server B's completed delivery, and the
    embedded runtime's task span (stamped with its executing pid) —
    parented in exactly that causal order."""
    workdir = Path(workdir)
    data_dir = workdir / "data"
    effects = workdir / "effects.txt"
    marker = workdir / "marker"
    deadline = time.monotonic() + timeout
    problems: list[str] = []
    details: dict[str, Any] = {}

    client = ServiceClient(data_dir)
    task_id = client.submit(
        f"{_DEMO}:wait_for_marker_then_append",
        str(effects),
        "traced-0",
        str(marker),
        tenant="alpha",
    )

    server_a = _spawn_server(
        data_dir,
        "--workers", "1",
        "--lease-timeout", str(lease_timeout),
        "--poll-interval", "0.02",
        "--seed", str(seed),
    )
    try:
        def leased() -> bool:
            row = client.status(task_id)
            return row is not None and row["state"] == "leased"

        if not _await(leased, deadline):
            problems.append("server A never leased the traced task")
        os.kill(server_a.pid, signal.SIGKILL)
        server_a.wait(timeout=10)
        details["killed_server_pid"] = server_a.pid
    finally:
        if server_a.poll() is None:  # pragma: no cover - kill failed
            server_a.kill()
            server_a.wait(timeout=10)

    marker.touch()  # the redelivered task may now finish

    server_b = _spawn_server(
        data_dir,
        "--workers", "1",
        "--lease-timeout", str(lease_timeout),
        "--poll-interval", "0.02",
        "--seed", str(seed),
        "--until-idle",
    )
    try:
        remaining = max(1.0, deadline - time.monotonic())
        server_b.wait(timeout=remaining)
    except subprocess.TimeoutExpired:
        server_b.kill()
        server_b.wait(timeout=10)
        problems.append("server B did not drain to idle in time")
    if server_b.returncode not in (0, None):
        problems.append(f"server B exited with {server_b.returncode}")

    row = client.status(task_id)
    if row is None or row["state"] != "done":
        problems.append(
            f"traced task ended {row['state']!r}" if row else "traced task vanished"
        )

    # Walk the exported OTLP document: one trace, four span roles.
    from repro.runtime.otlp import iter_spans, span_attributes
    from repro.service.server import export_service_otlp

    document = export_service_otlp(data_dir)
    details["otlp"] = document
    spans = list(iter_spans(document))
    submit_spans = [s for s in spans if s["name"] == "submit"]
    if len(submit_spans) != 1:
        problems.append(f"want exactly 1 submit span, got {len(submit_spans)}")
    trace_id = submit_spans[0]["traceId"] if submit_spans else None
    details["trace_id"] = trace_id

    in_trace = [s for s in spans if s["traceId"] == trace_id]
    deliveries = [s for s in in_trace if s["name"] == "deliver"]
    interrupted = [
        s for s in deliveries if span_attributes(s).get("repro.interrupted")
    ]
    completed = [
        s for s in deliveries if not span_attributes(s).get("repro.interrupted")
    ]
    if not interrupted:
        problems.append("no interrupted delivery span from the killed incarnation")
    if not completed:
        problems.append("no completed delivery span from the recovered incarnation")
    servers = {span_attributes(s).get("server") for s in deliveries}
    details["incarnations"] = sorted(filter(None, servers))
    if len(servers) < 2:
        problems.append(
            f"delivery spans name {len(servers)} server incarnation(s), want 2"
        )
    if submit_spans:
        submit_span_id = submit_spans[0]["spanId"]
        if not all(s.get("parentSpanId") == submit_span_id for s in deliveries):
            problems.append("a delivery span is not parented under the submit span")

    # The embedded runtime's task span: same trace, stamped with the
    # pid that executed the body, parented under a delivery.
    task_spans = [
        s
        for s in in_trace
        if s["name"] not in ("submit", "deliver")
        and span_attributes(s).get("repro.pid") is not None
    ]
    if not task_spans:
        problems.append("no runtime task span (with repro.pid) joined the trace")
    else:
        delivery_ids = {s["spanId"] for s in deliveries}
        if not any(s.get("parentSpanId") in delivery_ids for s in task_spans):
            problems.append("no runtime task span is parented under a delivery span")
        details["task_pids"] = sorted(
            {span_attributes(s)["repro.pid"] for s in task_spans}
        )

    client.close()
    return ChaosReport(
        scenario="traced-recovery",
        seed=seed,
        ok=not problems,
        n_tasks=1,
        problems=problems,
        details=details,
    )


def run_lease_expiry_scenario(
    workdir: str | Path,
    *,
    seed: int = 0,
    lease_timeout: float = 0.4,
    timeout: float = 60.0,
) -> ChaosReport:
    """One delivery goes dark; its lease expires; the redelivery does
    the work; the dark delivery deduplicates on wake-up."""
    from repro.service.server import QueueService, ServiceConfig

    rng = random.Random(seed)
    workdir = Path(workdir)
    data_dir = workdir / "data"
    effects = workdir / "effects.txt"
    problems: list[str] = []
    details: dict[str, Any] = {}

    client = ServiceClient(data_dir)
    line = f"victim-{rng.randrange(1000)}"
    task_id = client.submit(f"{_DEMO}:append_line", str(effects), line, tenant="alpha")
    # The dark delivery: claimed here, never heartbeated, never run.
    # The service below sees a live holder pid, so cold-start recovery
    # leaves the lease to the sweeper.
    dark_worker = "dark/w0"
    dark = client.queue.claim(worker=dark_worker, server="dark", lease_timeout=lease_timeout)
    if dark is None or dark.id != task_id:
        problems.append("the harness could not claim the victim first")

    service = QueueService(
        ServiceConfig(
            data_dir=str(data_dir),
            workers=2,
            lease_timeout=lease_timeout,
            poll_interval=0.02,
            jitter_seed=seed,
        )
    )
    service.start()
    deadline = time.monotonic() + timeout
    try:
        # The redelivery (attempt 1, after expiry) must complete while
        # the dark delivery is still out.
        def redelivered_and_done() -> bool:
            row = client.status(task_id)
            return row is not None and row["state"] == "done" and row["attempt"] >= 1

        if not _await(redelivered_and_done, deadline):
            problems.append("lease never expired / redelivery never completed")
    finally:
        service.drain(timeout=10)

    # The dark delivery wakes and does what a pool worker does first:
    # the dedup check finds the recorded result, so it must not run.
    if dark is not None:
        if client.queue.lookup_result(dark.signature) is None:
            problems.append("no result recorded for the dark delivery to find")
        else:
            client.queue.resolve_deduplicated(dark.id, dark_worker, span_ctx=dark.span_ctx)

    _verify_no_lost_no_duplicates(client, [task_id], effects, [line], problems)
    counters = client.counts()["counters"]
    details["counters"] = dict(counters)
    if not counters.get("lease_expirations"):
        problems.append("no lease expiry recorded")
    if not counters.get("dedup_skips"):
        problems.append("dark delivery did not deduplicate")
    events = {p["event"] for p in client.queue.provenance()}
    details["events"] = sorted(events)
    if "lease_expired" not in events:
        problems.append("provenance has no 'lease_expired' event")
    client.close()
    return ChaosReport(
        scenario="lease-expiry",
        seed=seed,
        ok=not problems,
        n_tasks=1,
        problems=problems,
        details=details,
    )
