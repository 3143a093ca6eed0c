"""Operator chains: which stages share a thread, where the streams are,
what crosses them, and that failure policies, latency and interrupts
act per operator inside a chain."""

from __future__ import annotations

import threading
import time

import pytest

from repro.runtime import Runtime, task
from repro.runtime.config import RuntimeConfig
from repro.runtime.engine import pop_runtime, push_runtime
from repro.runtime.exceptions import WorkflowAbortedError, WorkflowKilledError
from repro.runtime.failures import FAIL, IGNORE, RETRY
from repro.streaming import (
    ServeConfig,
    StreamFailure,
    StreamGraph,
    TumblingCountWindow,
    serve_stream,
    serving,
)


@task(returns=1, name="chain_kill")
def _kill():
    raise WorkflowKilledError("injected kill")


@task(returns=1, name="chain_abort", on_failure="FAIL")
def _abort():
    raise RuntimeError("injected abort")


def runtime(**kw):
    kw.setdefault("executor", "threads")
    kw.setdefault("max_workers", 2)
    return Runtime(config=RuntimeConfig(**kw))


@pytest.fixture(params=["threads", "sequential"])
def rt(request):
    with runtime(executor=request.param) as r:
        yield r


def _chains(g: StreamGraph) -> list[list[str]]:
    """Stage names grouped by the thread they ran on, in stage order."""
    by_thread: dict = {}
    for s in g.stages:
        by_thread.setdefault(s.thread, []).append(s.name)
    return list(by_thread.values())


def test_serving_runs_three_chains_and_fifty_crossings(monkeypatch):
    graphs = []

    class Capturing(StreamGraph):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            graphs.append(self)

    monkeypatch.setattr(serving, "StreamGraph", Capturing)
    cfg = ServeConfig(seed=1, n_segments=40, patients=4, batch_size=4)
    with runtime() as r:
        res = serve_stream(cfg, r)
    (g,) = graphs
    assert _chains(g) == [
        ["ecg", "key_by_patient", "segment"],
        ["features", "microbatch"],
        ["infer", "predictions"],
    ]
    assert all(s.thread is not threading.main_thread() for s in g.stages)
    streams = res.metrics["streams"]
    assert list(streams) == ["af-serving.segment", "af-serving.microbatch"]
    assert sum(st["puts"] for st in streams.values()) == 40 + 10
    counts = {n: (s["n_in"], s["n_out"]) for n, s in res.stage_stats.items()}
    assert counts == {
        "ecg": (0, 240),
        "key_by_patient": (240, 240),
        "segment": (240, 40),
        "features": (40, 40),
        "microbatch": (40, 10),
        "infer": (10, 40),
        "predictions": (40, 40),
    }


def test_graph_without_window_or_batch_is_one_chain(rt):
    g = StreamGraph(rt, name="g")
    s = g.source(range(10), name="src")
    s = g.map(s, lambda v: v + 1, name="inc")
    s = g.filter(s, lambda v: v % 2 == 0, name="even")
    s = g.flat_map(s, lambda v: [v, -v], name="pm")
    s = g.key_by(s, lambda v: v > 0, name="sign")
    sink = g.sink(s, name="out")
    g.start()
    g.join(timeout=30)
    assert _chains(g) == [["src", "inc", "even", "pm", "sign", "out"]]
    assert g.streams == [] and g.metrics_snapshot()["streams"] == {}
    assert sink.collected == [x for v in range(2, 11, 2) for x in (v, -v)]


@pytest.mark.parametrize("policy", [RETRY, IGNORE, FAIL])
def test_failure_policy_acts_per_element_in_mid_chain(rt, policy):
    upstream = []
    failed = set()

    def flaky(v):
        if v % 5 == 3 and v not in failed:
            failed.add(v)
            raise ValueError(f"transient failure on {v}")
        return 10 * v

    g = StreamGraph(rt, name="g", capacity=4)
    src = g.source(range(20), name="src")
    up = g.map(src, lambda v: (upstream.append(v), v)[1], name="up")
    mid = g.map(up, flaky, name="mid", on_failure=policy, max_retries=1)
    down = g.filter(mid, lambda v: True, name="down")
    sink = g.sink(g.window(down, TumblingCountWindow(4), fn=list, name="w"))
    g.start()
    stats = g.join(timeout=30, raise_on_error=policy != FAIL)
    assert _chains(g) == [["src", "up", "mid", "down", "w"], ["sink"]]
    values = [v for w in sink.collected for v in w]
    if policy == FAIL:
        assert isinstance(g.error, StreamFailure) and g.error.stage == "mid"
        assert isinstance(g.error.__cause__, ValueError)
        # the chain stopped at the failing element: nothing after it
        # was pulled, and the three before it never filled a window
        assert upstream == [0, 1, 2, 3] and stats["down"].n_in == 3
        assert values == []
    elif policy == RETRY:
        # only the failing operator re-runs, never its upstream
        assert upstream == list(range(20))
        assert stats["mid"].retries == stats["mid"].errors == 4
        assert values == [10 * v for v in range(20)]
    else:
        assert stats["mid"].dropped == 4 and stats["down"].n_in == 16
        assert values == [10 * v for v in range(20) if v % 5 != 3]
    assert all(s.depth() == 0 for s in g.streams)


def test_operator_latency_excludes_the_chain_it_calls(rt):
    g = StreamGraph(rt, name="g")
    src = g.source(range(6), name="src")
    fast = g.map(src, lambda v: v, name="fast")
    slow = g.map(fast, lambda v: (time.sleep(0.02), v)[1], name="slow")
    ones = g.window(slow, TumblingCountWindow(1), name="ones", capacity=1)
    g.sink(ones, lambda v: time.sleep(0.02), name="out")
    g.start()
    g.join(timeout=30)
    snap = g.metrics_snapshot()["stages"]
    assert snap["slow"]["p50_ms"] >= 20.0
    # neither the downstream map nor the blocking put into a full
    # stream is charged to the stage that called into them
    assert snap["fast"]["p50_ms"] < 10.0
    assert snap["ones"]["p50_ms"] < 10.0


@pytest.mark.parametrize("how", ["abort", "kill"])
@pytest.mark.parametrize("parked", ["put", "get"])
def test_interrupt_reaches_a_chain_parked_on_a_boundary_stream(how, parked):
    """The producer chain parked on a full stream, or the consumer
    chain parked on an empty one, wakes on a workflow abort or kill
    while the other chain is held outside any stream."""
    hold = threading.Event()
    r = runtime()
    push_runtime(r)
    try:
        g = StreamGraph(r, name="g", capacity=1)
        if parked == "put":
            # the sink holds record 0, the stream holds record 1, and
            # the source's chain parks putting record 2
            src = g.source(iter(range(1000)), name="src")
            sink_fn = lambda v: hold.wait(30)  # noqa: E731
        else:
            # the sink drains record 0 and parks on the empty stream
            # while the source's feed is held
            src = g.source((v for v in range(2) if v == 0 or hold.wait(30)), name="src")
            sink_fn = None
        ones = g.window(src, TumblingCountWindow(1), fn=sum, name="ones")
        sink = g.sink(ones, sink_fn, name="out", collect=True)
        g.start()
        stream = g.streams[0]
        deadline = time.monotonic() + 10
        while not (
            stream.stats()["put_waits"] if parked == "put" else sink.collected
        ):
            assert time.monotonic() < deadline, "chain never parked"
            time.sleep(0.002)
        time.sleep(0.01)
        (_kill if how == "kill" else _abort)()
        expected = WorkflowKilledError if how == "kill" else WorkflowAbortedError
        with pytest.raises(expected):
            r.barrier()
        parked_stage = g.stages[0] if parked == "put" else sink
        parked_stage.thread.join(timeout=10)
        assert not parked_stage.thread.is_alive(), "interrupt did not reach it"
        hold.set()
        g.join(timeout=10, raise_on_error=False)
        assert isinstance(g.error, expected)
        assert all(s.depth() == 0 for s in g.streams)
    finally:
        hold.set()
        pop_runtime(r)
        r.shutdown(wait=False)
