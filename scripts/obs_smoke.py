#!/usr/bin/env python
"""Observability smoke test: run a tiny-but-real AF pipeline stage with
tracing on, then prove every export is well-formed and consistent.

Run from the repo root (``make obs`` does this)::

    PYTHONPATH=src python scripts/obs_smoke.py

The script runs the feature-extraction + PCA stages of the AF workflow
(real DAG dependencies through the distributed PCA) on the threads
executor, and asserts:

1. ``stats()`` and the trace are two readings of one task table: one
   record per attempt (``n_tasks``), and ``by_state["done"]`` is the
   executed plus the restored attempts,
2. the chrome timeline rendered from the trace's OTLP document
   validates (lanes, flow events, phases), carries one lane per worker
   that actually ran a task and one flow arrow per recorded dependency
   edge,
3. the critical path is bounded: at least the longest single task,
   at most the makespan,
4. the ``repro trace`` CLI (summarize / critical-path / chrome) works
   end to end on the run's saved OTLP document, which reads back with
   its span timestamps,
5. a run with ``flightrec_dir`` whose task kills the workflow leaves a
   dump whose terminal rows agree with the ``stats()`` recorded in it,
   and with ``stats()`` read after the kill but for the killed attempt,
   which retires failed after the dump — and which ``repro logs``
   renders under its usual columns.

Exit code 0 means all five hold.
"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from repro.cli import main as cli_main
from repro.runtime import Runtime, RuntimeConfig, task, wait_on
from repro.runtime import observability as obs
from repro.runtime.otlp import otlp_to_chrome, otlp_to_traces, save_otlp, trace_to_otlp
from repro.runtime.exceptions import WorkflowKilledError
from repro.runtime.flightrec import load_dump
from repro.workflows.af_pipeline import (
    PipelineConfig,
    extract_features,
    prepare_dataset,
    reduce_dimensions,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.support.chrome import validate_chrome_json  # noqa: E402

TINY = PipelineConfig(
    scale=0.004,
    seed=0,
    block_size=(16, 64),
    n_splits=3,
    decimate=8,
    stft_batch=8,
)


#: The header ``repro logs <dump>`` prints above the lifecycle rows.
LOGS_COLUMNS = ["t", "kind", "task", "attempt", "state", "name"]


@task(returns=1)
def _step(x):
    if x == 3:  # the fourth step: the process "dies" three tasks in
        raise WorkflowKilledError("workflow killed in the fourth step")
    return x + 1


def fail(msg: str) -> None:
    print(f"FAIL: {msg}")
    sys.exit(1)


def flight_recorder_step(tmp: Path) -> None:
    cfg = RuntimeConfig(executor="sequential", flightrec_dir=str(tmp / "dumps"))
    rt = Runtime(config=cfg)
    try:
        with rt:
            x = 0
            for _ in range(6):
                x = _step(x)
            wait_on(x)
    except WorkflowKilledError:
        pass
    else:
        fail("the body's kill did not fire")
    stats = rt.stats()
    dumps = sorted((tmp / "dumps").glob("flightrec-*.json"))
    if len(dumps) != 1:
        fail(f"expected one flight-recorder dump, found {len(dumps)}")
    payload = load_dump(dumps[0])
    if not payload["reason"].startswith("kill:") or payload["n_dropped"]:
        fail(f"unexpected dump header: {payload['reason']!r}, {payload['n_dropped']} dropped")
    terminal = collections.Counter(
        e["state"] for e in payload["events"] if e["kind"] in obs.TERMINAL_KINDS
    )
    # The dump is taken as the kill lands, while the killed attempt is
    # still running; it retires failed right after, so stats() read
    # after the kill holds exactly one more failed attempt (the kill
    # hit the fourth submission, so nothing depends on it).
    by_state = {k: v for k, v in stats["by_state"].items() if k in obs.TERMINAL_KINDS}
    if dict(terminal + collections.Counter(failed=1)) != by_state:
        fail(f"dump has terminal rows {dict(terminal)}, stats() says {stats['by_state']}")
    dumped = {k: v for k, v in payload["stats"]["by_state"].items() if k in obs.TERMINAL_KINDS}
    if dumped != dict(terminal):
        fail(f"dump's stats say {payload['stats']['by_state']}, its rows {dict(terminal)}")
    submitted = sum(e["kind"] == obs.SUBMITTED for e in payload["events"])
    if submitted != stats["n_tasks"]:
        fail(f"dump has {submitted} submitted rows for {stats['n_tasks']} tasks")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli_main(["logs", str(dumps[0])])
    lines = out.getvalue().splitlines()
    columns = [line.split() for line in lines]
    if rc != 0 or LOGS_COLUMNS not in columns:
        fail(f"repro logs exited {rc} without the header {LOGS_COLUMNS}:\n{out.getvalue()}")
    # header, rule, one line per row, then the by-state line
    rendered = lines[columns.index(LOGS_COLUMNS) + 2 : -1]
    if len(rendered) != payload["n_events"]:
        fail(f"repro logs rendered {len(rendered)} rows of {payload['n_events']}")
    print(
        f"ok: flight-recorder dump ({payload['n_events']} rows, terminal {dict(terminal)})"
        " agrees with stats() and renders via repro logs"
    )


def main() -> None:
    cfg = RuntimeConfig(executor="threads", max_workers=2)
    with Runtime(config=cfg) as rt:
        dataset = prepare_dataset(TINY)
        feats, _labels = extract_features(dataset, TINY)
        reduced, _pca = reduce_dimensions(feats, TINY)
        reduced.collect()
        rt.shutdown()

        stats = rt.stats()
        trace = rt.trace()

    # -- 1. stats() and the trace reconcile -----------------------------
    if len(trace) != stats["n_tasks"] or sum(stats["by_state"].values()) != stats["n_tasks"]:
        fail(f"{len(trace)} records, stats() says {stats['n_tasks']} tasks {stats['by_state']}")
    n_done = stats["by_state"].get("done", 0)
    if n_done != trace.n_executed + trace.n_restored:
        fail(
            f"stats() done={n_done}, trace has {trace.n_executed} executed"
            f" + {trace.n_restored} restored"
        )
    print(f"ok: stats() agrees with the trace ({stats['n_tasks']} tasks)")

    # -- 2. the chrome timeline is a view of the trace ------------------
    events = validate_chrome_json(json.dumps(otlp_to_chrome(trace_to_otlp(trace))))
    xs = [e for e in events if e["ph"] == "X"]
    lanes = {(e["pid"], e["tid"]) for e in xs}
    workers = {r.worker for r in trace if r.worker is not None}
    if len(xs) != len(trace):
        fail(f"chrome trace has {len(xs)} slices for {len(trace)} records")
    if len(lanes) != len(workers):
        fail(f"{len(lanes)} lanes for {len(workers)} workers")
    flows = sum(1 for e in events if e["ph"] == "s")
    edges = sum(dep in trace for r in trace for dep in r.deps)
    if flows != edges or flows != sum(1 for e in events if e["ph"] == "f"):
        fail(f"{flows} flow arrows for {edges} recorded dependency edges")
    if flows == 0:
        fail("no flow events despite DAG dependencies")
    print(f"ok: chrome trace valid ({len(xs)} slices, {len(lanes)} lanes, {flows} flows)")

    # -- 3. critical-path bounds ----------------------------------------
    cp = obs.critical_path(trace)
    longest = max(r.duration for r in trace)
    if not (longest <= cp.length * (1 + 1e-9)):
        fail(f"critical path {cp.length} shorter than longest task {longest}")
    if not (cp.length <= trace.makespan * (1 + 1e-6)):
        fail(f"critical path {cp.length} exceeds makespan {trace.makespan}")
    print(
        f"ok: critical path bounded ({cp.length:.3f}s of {trace.makespan:.3f}s"
        f" makespan, {len(cp.records)} tasks)"
    )

    # -- 4. the trace CLI end to end ------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        trace_file = Path(tmp) / "trace.otlp.json"
        save_otlp(trace_to_otlp(trace), trace_file)
        for action in ("summarize", "critical-path"):
            rc = cli_main([ "trace", action, str(trace_file)])
            if rc != 0:
                fail(f"repro trace {action} exited {rc}")
        chrome_file = Path(tmp) / "trace.chrome.json"
        rc = cli_main(["trace", "chrome", str(trace_file), "--output", str(chrome_file)])
        if rc != 0:
            fail(f"repro trace chrome exited {rc}")
        validate_chrome_json(chrome_file.read_text())
        # the saved document reads back with spans intact
        ((_, back),) = otlp_to_traces(json.loads(trace_file.read_text()))
        if len(back) != len(trace) or any(r.t_submit is None for r in back):
            fail("saved document lost records or span timestamps")
    print("ok: repro trace CLI (summarize, critical-path, chrome)")

    # -- 5. the flight recorder: a view of the table, dumped on a kill --
    with tempfile.TemporaryDirectory() as tmp:
        flight_recorder_step(Path(tmp))

    print("observability smoke: ALL OK")


if __name__ == "__main__":
    main()
