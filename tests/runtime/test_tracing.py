"""Direct unit tests for :mod:`repro.runtime.tracing`."""

from __future__ import annotations

import collections
import json
import os
import random
import re
import sys
import threading
import time
import types

import networkx as nx
import numpy as np
import pytest

from repro.runtime import Runtime, active_runtime, task, tracectx, wait_on
from repro.runtime import observability as obs
from repro.runtime.backends import current_attempt
from repro.runtime.config import RuntimeConfig
from repro.runtime.dag import TaskGraph
from repro.runtime.dot import graph_summary
from repro.runtime.future import Future
from repro.runtime.otlp import (
    iter_spans,
    otlp_to_chrome,
    otlp_to_traces,
    save_otlp,
    trace_to_otlp,
)
from repro.runtime.store import ObjectRef
from repro.runtime.tracing import TaskRecord, Trace, estimate_nbytes, payload_nbytes
from tests.support.chrome import validate_chrome_json


def _rec(task_id, t_start, t_end, name="t", deps=(), **kw):
    return TaskRecord(
        task_id=task_id, name=name, deps=tuple(deps), t_start=t_start, t_end=t_end, **kw
    )


# ----------------------------------------------------------------------
# estimate_nbytes
# ----------------------------------------------------------------------
def test_estimate_nbytes_ndarray_and_scalar():
    arr = np.zeros((10, 10), dtype=np.float64)
    assert estimate_nbytes(arr) == 800
    assert estimate_nbytes(np.float64(1.5)) == 8
    assert estimate_nbytes(np.int32(7)) == 4


def test_estimate_nbytes_memoryview_and_bytes():
    assert estimate_nbytes(b"abcd") == 4
    assert estimate_nbytes(bytearray(16)) == 16
    assert estimate_nbytes(memoryview(bytes(32))) == 32


def test_estimate_nbytes_nested_containers():
    block = np.zeros(100, dtype=np.float64)  # 800 B
    # list-of-lists of blocks — the ds-array layout — must sum the
    # arrays, not bottom out at the 64-byte fallback.
    grid = [[block, block], [block, block]]
    assert estimate_nbytes(grid) == 4 * 800
    assert estimate_nbytes({"a": [block], "b": (block,)}) == 2 * 800
    assert estimate_nbytes({np.int64(1), np.int64(2)}) == 16
    assert estimate_nbytes([[[np.float32(0.5)]]]) == 4


def test_estimate_nbytes_fallback_constant():
    class Opaque:
        pass

    assert estimate_nbytes(Opaque()) == 64
    assert estimate_nbytes("some string") == 64
    assert estimate_nbytes([1, 2]) == 128  # two opaque ints


def test_estimate_nbytes_depth_is_not_bounded_by_the_recursion_limit():
    block = np.zeros(4, dtype=np.float64)
    nested = [block]
    for _ in range(5000):
        nested = [nested, 1]
    assert sys.getrecursionlimit() < 5000
    assert estimate_nbytes(nested) == 32 + 5000 * 64


_BLOCK = np.zeros(100, dtype=np.float64)
_REF = ObjectRef(object_id="o1", shape=(64,), dtype="float64", nbytes=512)


@pytest.mark.parametrize(
    "values, kwargs",
    [
        ((), {}),
        ((1, 2.5, True, "s", None), {}),
        ((_BLOCK, 3), {}),
        ((_BLOCK, np.float32(0.5)), {}),
        (([_BLOCK, _BLOCK], 1), {}),
        (([[_BLOCK], (_BLOCK, 2)],), {}),
        ((_BLOCK,), {"k": _BLOCK, "n": 4}),
        ((), {"grid": [[_BLOCK]]}),
        ((_REF, 1), {}),
        (([_REF, _BLOCK],), {"ref": _REF}),
        ((b"abcd", memoryview(bytes(8))), {}),
        ([_BLOCK, 1], {}),
    ],
)
def test_payload_nbytes_equals_the_full_walk(values, kwargs):
    """The flat fast path reads what ``estimate_nbytes`` reads: the
    arguments with their keywords, and a results tuple on its own."""
    assert payload_nbytes(values, kwargs) == estimate_nbytes((values, kwargs))
    assert payload_nbytes(values) == estimate_nbytes(values)


# ----------------------------------------------------------------------
# TaskRecord span properties
# ----------------------------------------------------------------------
def test_queue_wait_and_overhead():
    rec = _rec(0, t_start=1.0, t_end=2.0, t_submit=0.1, t_ready=0.2, t_dispatch=0.7)
    assert rec.queue_wait == pytest.approx(0.5)
    # submit -> body start is 0.9s; 0.5s of it was queue wait
    assert rec.overhead == pytest.approx(0.4)
    assert rec.duration == pytest.approx(1.0)


def test_span_properties_default_to_zero_without_timestamps():
    rec = _rec(0, t_start=1.0, t_end=2.0)
    assert rec.queue_wait == 0.0
    assert rec.overhead == 0.0


def test_span_properties_clamp_negative():
    # A pre-observability trace could carry clock skew; never negative.
    rec = _rec(0, t_start=0.5, t_end=2.0, t_submit=0.9, t_ready=0.95, t_dispatch=0.4)
    assert rec.queue_wait == 0.0
    assert rec.overhead == 0.0


# ----------------------------------------------------------------------
# attempts_of / records / counts
# ----------------------------------------------------------------------
def _retry_trace():
    return Trace(
        [
            _rec(0, 0.0, 1.0, name="flaky", status="failed", error="boom"),
            _rec(1, 1.0, 2.0, name="flaky", deps=(0,), attempt=1, retry_of=0,
                 status="failed", error="boom"),
            _rec(2, 2.0, 3.0, name="flaky", deps=(1,), attempt=2, retry_of=1),
            _rec(3, 0.0, 0.5, name="other"),
            _rec(4, 0.0, 0.0, name="cached", status="restored"),
        ]
    )


def test_attempts_of_follows_retry_chain():
    tr = _retry_trace()
    chain = tr.attempts_of(0)
    assert [r.task_id for r in chain] == [0, 1, 2]
    assert [r.attempt for r in chain] == [0, 1, 2]
    assert [r.status for r in chain] == ["failed", "failed", "done"]
    # a task with no retries is a one-element chain
    assert [r.task_id for r in tr.attempts_of(3)] == [3]
    # unknown root: empty chain
    assert tr.attempts_of(99) == []


def test_records_filters_by_name_and_status():
    tr = _retry_trace()
    assert len(tr.records(name="flaky")) == 3
    assert len(tr.records(name="flaky", status="failed")) == 2
    assert [r.task_id for r in tr.records(status="done")] == [2, 3]
    assert tr.records(name="missing") == []


def test_counts_and_aggregates():
    tr = _retry_trace()
    assert tr.n_failed_attempts == 2
    assert tr.n_restored == 1
    assert tr.n_executed == 4
    assert tr.total_task_time == pytest.approx(3.5)
    assert tr.makespan == pytest.approx(3.0)


# ----------------------------------------------------------------------
# (de)serialisation: the OTLP document is the one file format
# ----------------------------------------------------------------------
def _read_back(document):
    ((_, trace),) = otlp_to_traces(document)
    return trace


def test_json_roundtrip_preserves_spans():
    tr = Trace(
        [
            _rec(0, 1.0, 2.0, t_submit=0.1, t_ready=0.2, t_dispatch=0.9,
                 worker="w-0", pid=123),
        ]
    )
    back = _read_back(json.loads(json.dumps(trace_to_otlp(tr))))
    rec = back[0]
    assert rec.t_submit == 0.1 and rec.t_dispatch == 0.9
    assert rec.worker == "w-0" and rec.pid == 123
    assert rec.deps == ()


def test_from_json_tolerates_unknown_keys():
    document = trace_to_otlp(Trace([_rec(0, 0.0, 1.0)]))
    (span,) = iter_spans(document)
    span["attributes"].append(
        {"key": "some.future_field", "value": {"stringValue": "nested"}}
    )
    span["someFutureKey"] = 42
    document["resourceSpans"][0]["resource"]["attributes"].append(
        {"key": "another.new_key", "value": {"intValue": "42"}}
    )
    tr = _read_back(document)
    assert len(tr) == 1
    assert tr[0].duration == 1.0


def test_save_and_load(tmp_path):
    tr = _retry_trace()
    path = tmp_path / "trace.json"
    save_otlp(trace_to_otlp(tr), path)
    back = _read_back(json.loads(path.read_text()))
    assert len(back) == len(tr)
    assert back.n_failed_attempts == tr.n_failed_attempts
    assert [r.task_id for r in back] == [r.task_id for r in tr]


# ----------------------------------------------------------------------
# one task table on the task path; trace, graph and stats shaped on read
# ----------------------------------------------------------------------
@task(returns=1)
def _add(a, b):
    return a + b


@task(returns=1)
def _block(n):
    return np.ones(n)


@task(returns=1, max_retries=2)
def _flaky(x):
    if current_attempt() == 0:
        raise ValueError("first attempt fails")
    return x


@task(returns=1, on_failure="IGNORE", failure_default=-1)
def _doomed(x):
    raise RuntimeError("swallowed by IGNORE")


def _random_dag_run(seed, ckpt_dir, **cfg):
    """One seeded DAG with every kind of attempt in it: a restored task,
    nested submissions, retries, IGNOREd failures, array payloads, a
    ``submit_many`` batch and cancelled subtrees (an ``_add`` of two
    blocks of different lengths fails and takes its successors with
    it).  Returns the views read after ``barrier()`` (``metrics()``
    among them: the disabled shape unless *cfg* turns the flag on), the
    lifecycle events, the graph nodes as a running task saw them and the
    dependency edges as the futures passed to each call imply them."""
    mid_run: dict = {}
    edges: collections.Counter = collections.Counter()

    def call(fn, *args):
        out = fn(*args)
        edges.update({(a.task_id, out.task_id) for a in args if isinstance(a, Future)})
        return out

    # Defined in a local scope so the processes backend runs it on the
    # coordinator, where its nested submissions are recorded.
    @task(returns=1)
    def _nest(x):
        mid_run.update(active_runtime().graph.snapshot().nodes(data=True))
        return call(_add, call(_add, x, 1), 2)

    config = RuntimeConfig(max_workers=2, checkpoint_dir=str(ckpt_dir), **cfg)
    with Runtime(config=config):
        assert wait_on(_add(100, 1)) == 101  # fills the checkpoint store
    rng = random.Random(seed)
    with Runtime(config=config) as rt:
        pool = [call(_add, 100, 1)]  # task 0: restored, its body never runs
        pool.append(call(_nest, pool[0]))  # task 1, children 2 and 3
        assert wait_on(pool[1]) == 104
        pool += [call(_doomed, pool[1]), call(_flaky, pool[0])]
        pool += [call(_block, 16), call(_block, 20_000)]
        for _ in range(30):
            kind = rng.choice((_add, _add, _add, _flaky, _doomed, _block))
            if kind is _add:
                pool.append(call(_add, rng.choice(pool), rng.choice(pool)))
            elif kind is _block:
                pool.append(call(_block, rng.randrange(1, 64)))
            else:
                pool.append(call(kind, rng.choice(pool)))
        picked = rng.sample(pool, 8)
        batch = rt.submit_many([_add.defer(f, 1) for f in picked])
        edges.update((f.task_id, out.task_id) for f, out in zip(picked, batch))
        rt.barrier()
        return types.SimpleNamespace(
            trace=rt.trace(),
            graph=rt.graph,
            stats=rt.stats(),
            n_tasks=rt.n_tasks,
            events=[
                types.SimpleNamespace(**row) for row in obs.lifecycle_events(rt._attempts())
            ],
            mid_run=mid_run,
            edges=edges,
        )


_EXECUTORS = {
    "sequential": {"executor": "sequential"},
    "threads": {"executor": "threads", "backend": "threads"},
    "processes": {"executor": "threads", "backend": "processes"},
}


def _shape(rec):
    return (rec.name, rec.attempt, rec.status, rec.parent_id, len(rec.deps),
            rec.in_bytes, rec.out_bytes)


@pytest.mark.parametrize("seed", [0, 1])
def test_records_equal_across_executors_and_backends(seed, tmp_path):
    traces = {
        name: _random_dag_run(seed, tmp_path / name, **cfg).trace
        for name, cfg in _EXECUTORS.items()
    }
    # the processes run really crossed the boundary (nbytes of ObjectRefs,
    # pids and errors relayed from workers feed the same row)
    assert {r.pid for r in traces["processes"]} - {None, os.getpid()}
    reference = collections.Counter(_shape(r) for r in traces["sequential"])
    statuses = {shape[2] for shape in reference}
    assert statuses == {"done", "failed", "ignored", "restored"}
    for name, trace in traces.items():
        assert collections.Counter(_shape(r) for r in trace) == reference, name
        by_id = {r.task_id: r for r in trace}
        for rec in trace:
            assert type(rec) is TaskRecord
            assert type(rec.deps) is tuple and list(rec.deps) == sorted(rec.deps)
            assert all(type(d) is int and d in by_id for d in rec.deps)
            assert re.fullmatch("[0-9a-f]{32}", rec.trace_id)
            assert re.fullmatch("[0-9a-f]{16}", rec.span_id)
            assert rec.t_submit <= rec.t_start <= rec.t_end
            assert rec.computing_units == 1 and rec.gpus == 0
            assert (rec.error is not None) == (rec.status in ("failed", "ignored"))
            if rec.status == "restored":
                assert rec.pid is None and rec.t_start == rec.t_end
            else:
                assert rec.worker and rec.t_dispatch is not None
                assert rec.pid or rec.status != "done"
            if rec.parent_id is not None:
                parent = by_id[rec.parent_id]
                assert parent.name == "_nest"
                assert rec.parent_span_id == parent.span_id
                assert rec.trace_id == parent.trace_id
            if rec.retry_of is not None:
                assert rec.parent_span_id == by_id[rec.retry_of].span_id
        assert sum(r.parent_id is not None for r in trace) == 2


@pytest.mark.parametrize("name", list(_EXECUTORS))
def test_graph_and_stats_are_views_of_the_task_table(name, tmp_path):
    run = _random_dag_run(0, tmp_path, **_EXECUTORS[name])
    snap = run.graph.snapshot()
    submitted = [e for e in run.events if e.kind == obs.SUBMITTED]
    terminal = {e.task_id: e.kind for e in run.events if e.kind in obs.TERMINAL_KINDS}

    # one node per attempt, retries included
    assert sorted(snap.nodes) == sorted(e.task_id for e in submitted)
    assert sorted(snap.nodes) == list(range(run.n_tasks))
    # one edge per dependency of a first attempt, one retry edge per resubmission
    expected = run.edges + collections.Counter(
        (e.retry_of, e.task_id, "retry") for e in submitted if e.retry_of is not None
    )
    got = collections.Counter(
        (u, v, "retry") if data.get("kind") == "retry" else (u, v)
        for u, v, data in snap.edges(data=True)
    )
    assert got == expected and run.graph.n_edges == sum(expected.values())
    assert any(len(edge) == 3 for edge in expected)

    for event in submitted:
        node = snap.nodes[event.task_id]
        assert node["name"] == event.name
        assert node["computing_units"] == 1 and node["gpus"] == 0
        # after barrier() every attempt is terminal
        assert node["state"] == terminal[event.task_id]
        assert node.get("restored", False) == (node["state"] == "restored")
        assert ("attempt" in node) == ("retry_of" in node) == (event.retry_of is not None)
        assert node.get("attempt", 0) == event.attempt
        assert node.get("retry_of") == event.retry_of
        if event.task_id in run.trace:
            assert node["parent"] == run.trace[event.task_id].parent_id
    retried = {e.retry_of for e in submitted if e.retry_of is not None}
    assert retried == {n for n, data in snap.nodes(data=True) if data.get("retried")}
    assert {snap.nodes[n]["state"] for n in retried} == {"failed"}
    # cancelled attempts are nodes without a record
    assert sorted(set(snap.nodes) - {r.task_id for r in run.trace}) == sorted(
        n for n, data in snap.nodes(data=True) if data["state"] == "cancelled"
    )
    assert {"restored", "done", "failed", "ignored", "cancelled"} == set(terminal.values())

    # read by task 1 while it ran: a live attempt carries no state
    assert set(run.mid_run) == {0, 1}
    assert run.mid_run[0]["state"] == "restored" and "state" not in run.mid_run[1]

    summary = graph_summary(run.graph)
    assert graph_summary(snap) == summary  # the DiGraph goes back through the constructor
    assert {k: run.stats[k] for k in ("n_tasks", "n_edges", "by_name")} == {
        k: summary[k] for k in ("n_tasks", "n_edges", "by_name")
    }
    assert sum(run.stats["by_state"].values()) == run.n_tasks == len(submitted)


@pytest.mark.parametrize("name", list(_EXECUTORS))
def test_timeline_is_a_view_of_the_trace(name, tmp_path):
    for seed in (0, 1):
        trace = _random_dag_run(seed, tmp_path / str(seed), **_EXECUTORS[name]).trace
        events = validate_chrome_json(json.dumps(otlp_to_chrome(trace_to_otlp(trace))))
        rows = {e["pid"]: e["args"]["name"] for e in events if e["name"] == "process_name"}
        spans = [e for e in events if e["ph"] in ("X", "i") and e["cat"] in ("span", "error")]

        # one slice or instant per record, on its pid's row and its worker's lane
        assert sorted(e["args"]["repro.task_id"] for e in spans) == [r.task_id for r in trace]
        for e in spans:
            pid = trace[e["args"]["repro.task_id"]].pid
            assert rows[e["pid"]] == ("repro-runtime" if pid is None else f"repro-runtime pid {pid}")
        assert len(rows) == len({r.pid for r in trace})
        assert len({(e["pid"], e["tid"]) for e in spans}) == len(
            {(r.pid, r.worker or "main") for r in trace}
        )

        # one arrow per dependency on a recorded producer, never backwards
        flows = collections.defaultdict(dict)
        for e in events:
            if e["ph"] in ("s", "f"):
                flows[e["id"]][e["ph"]] = e
        assert len(flows) == sum(dep in trace for r in trace for dep in r.deps) > 0
        assert all(pair["f"]["ts"] >= pair["s"]["ts"] for pair in flows.values())

        markers = collections.Counter(
            e["cat"] for e in events if e["ph"] == "i" and e["cat"] not in ("span", "error")
        )
        assert markers == collections.Counter(
            retry=sum(r.retry_of is not None for r in trace),
            checkpoint=trace.n_restored,
            failure=len(trace.records(status="failed")),
        )
        assert markers["retry"] and markers["checkpoint"] and markers["failure"]

        counters = [e for e in events if e["ph"] == "C"]
        moved = sum(r.bytes_moved for r in trace)
        saved = sum(r.bytes_saved for r in trace)
        if moved or saved:
            assert counters[-1]["args"] == {"moved": moved, "saved": saved}
        else:
            assert not counters


_LIFECYCLE_ORDER = ("retry", "submitted", "ready", "dispatched", "running")


@pytest.mark.parametrize("name", list(_EXECUTORS))
def test_lifecycle_events_are_a_view_of_the_task_table(name, tmp_path):
    run = _random_dag_run(0, tmp_path, **_EXECUTORS[name])
    assert [e.t for e in run.events] == sorted(e.t for e in run.events)
    by_attempt = collections.defaultdict(list)
    for e in run.events:
        by_attempt[e.task_id].append(e)
    assert sorted(by_attempt) == list(range(run.n_tasks))
    for rows in by_attempt.values():
        # a prefix of the lifecycle (no READY hop when sequential, a
        # RETRY row on resubmissions only), closed by one terminal row
        *live, terminal = [e.kind for e in rows]
        assert terminal in obs.TERMINAL_KINDS
        assert live == [k for k in _LIFECYCLE_ORDER if k in live]
        assert ("retry" in live) == (rows[0].retry_of is not None)
        assert "submitted" in live and ("running" in live) == rows[-1].ran
        assert ("ready" in live) == (name != "sequential" and "dispatched" in live)
        assert rows[-1].ran == (rows[-1].duration is not None)

    kinds = collections.Counter(e.kind for e in run.events)
    terminal = collections.Counter(
        e.state for e in run.events if e.kind in obs.TERMINAL_KINDS
    )  # a restored attempt ends in state "done"
    assert dict(terminal) == run.stats["by_state"]
    assert kinds["submitted"] == run.n_tasks == run.stats["n_tasks"]
    assert kinds["retry"] == run.stats["retries"] > 0
    assert kinds["restored"] == run.stats["restored"] == 1
    assert "running" not in run.stats["by_state"]
    # under a pool every attempt that ran was enqueued once
    assert kinds["ready"] == (0 if name == "sequential" else run.trace.n_executed)

    # the trace is a third reading of the same table: failed attempts
    # by task, restored and executed attempts, body seconds
    failed = collections.Counter(
        e.name for e in run.events if e.kind in (obs.FAILED, obs.IGNORED)
    )
    assert failed == collections.Counter(
        r.name for r in run.trace if r.status in ("failed", "ignored")
    )
    assert sum(failed.values()) == run.trace.n_failed_attempts == (
        run.stats["by_state"]["failed"] + run.stats["by_state"]["ignored"]
    )
    assert kinds["restored"] == run.trace.n_restored
    ran = [e for e in run.events if e.kind in obs.TERMINAL_KINDS and e.ran]
    assert len(ran) == run.trace.n_executed
    assert sum(e.duration for e in ran) == pytest.approx(
        sum(r.t_end - r.t_start for r in run.trace if r.status != "restored")
    )


def test_trace_read_from_another_thread_during_a_flood():
    """``trace()`` — and the two other views, ``graph`` and ``stats()`` —
    read while a half-chained flood runs never raise and never shrink."""
    sizes: list[tuple] = []
    errors: list[BaseException] = []
    done = threading.Event()
    n = 2000
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with Runtime(executor="threads", max_workers=2) as rt:

            def reader():
                try:
                    while not done.is_set():
                        graph, stats = rt.graph, rt.stats()
                        sizes.append(
                            (len(rt.trace()), graph.n_tasks, graph.n_edges,
                             stats["n_tasks"], stats["n_edges"])
                        )
                        time.sleep(0.0005)
                except BaseException as exc:  # noqa: BLE001 - asserted below
                    errors.append(exc)

            thread = threading.Thread(target=reader)
            thread.start()
            try:
                futures = []
                for i in range(n):  # every second task hangs off the one before
                    futures.append(_add(futures[-1] if i % 2 else i, 0))
                wait_on(futures)
            finally:
                done.set()
                thread.join(30)
            assert not thread.is_alive()
            final = rt.trace()
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert len(sizes) > 1
    for column, limit in zip(zip(*sizes), (n, n, n // 2, n, n // 2)):
        assert list(column) == sorted(column) and column[-1] <= limit  # never shrinks
    # attempts shaped by the reader mid-run are neither lost nor shaped twice
    assert [r.task_id for r in final] == list(range(n))
    assert all(type(r) is TaskRecord and r.status == "done" for r in final)


def test_default_config_flood_shapes_nothing_until_read(monkeypatch):
    """A count, not a timing: between the first submit and ``barrier()``
    returning, the default configuration builds no ``TaskRecord`` and no
    ``TaskGraph``, calls nothing in networkx and formats no id."""
    calls: collections.Counter = collections.Counter()

    def count(owner, attr, key):
        real = getattr(owner, attr)

        def counted(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    count(TaskRecord, "__init__", "record")
    count(TaskGraph, "__init__", "graph")
    count(nx.DiGraph, "__init__", "networkx")
    count(nx.DiGraph, "add_node", "networkx")
    count(tracectx, "_hex", "hex")
    n = 1000
    # backend pinned: the processes backend formats one header per
    # dispatched task, by design
    with Runtime(config=RuntimeConfig(max_workers=2, backend="threads")) as rt:
        assert rt.config.collect_trace and rt.executor == "threads"
        futures = [_add(i, 0) for i in range(n)]
        rt.barrier()
        assert not calls
        assert len(rt.trace()) == n
        assert calls == {"record": n, "hex": 2 * n}  # roots: no parent id to format
        assert len(rt.trace()) == n
        assert calls["record"] == n  # the second read shapes nothing
        assert rt.graph.n_tasks == n and rt.graph.n_edges == 0
        assert calls["graph"] == 2 and calls["networkx"] == 0
        assert rt.graph.snapshot().number_of_nodes() == n
        assert calls["networkx"] > 0
    assert wait_on(futures) == list(range(n))
