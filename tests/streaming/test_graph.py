"""StreamGraph wiring: multi-stage pipelines, failure policies,
task-interop in both directions, lifecycle errors."""

from __future__ import annotations

import threading
import time

import pytest

from repro.runtime import Runtime, task, wait_on
from repro.runtime.config import RuntimeConfig
from repro.streaming import (
    StreamFailure,
    StreamGraph,
    TumblingCountWindow,
)


@task(returns=1)
def _triple(x):
    return 3 * x


@task(returns=1)
def _total(values):
    return sum(values)


def runtime(**kw):
    kw.setdefault("executor", "threads")
    kw.setdefault("max_workers", 2)
    return Runtime(config=RuntimeConfig(**kw))


@pytest.fixture(params=["threads", "sequential"])
def rt(request):
    with runtime(executor=request.param) as r:
        yield r


def reference(n, w):
    vals = [v * 2 for v in range(n) if (v * 2) % 3 != 0]
    return [sum(vals[i : i + w]) for i in range(0, len(vals), w)]


def test_multi_stage_pipeline_matches_reference(rt):
    g = StreamGraph(rt, name="g", capacity=4)
    src = g.source(range(40), name="src")
    m = g.map(src, lambda v: v * 2)
    f = g.filter(m, lambda v: v % 3 != 0)
    w = g.window(f, TumblingCountWindow(4), fn=sum)
    sink = g.sink(w)
    g.start()
    stats = g.join()
    assert sink.collected == reference(40, 4)
    assert all(s.depth() == 0 for s in g.streams)
    assert stats["src"].n_out == 40
    assert g.error is None


def test_flat_map_and_batch(rt):
    g = StreamGraph(rt, name="g")
    src = g.source(range(6), name="src")
    fm = g.flat_map(src, lambda v: [v, v])
    b = g.batch(fm, 5)
    sink = g.sink(b)
    g.start()
    g.join()
    assert sink.collected == [[0, 0, 1, 1, 2], [2, 3, 3, 4, 4], [5, 5]]


def test_key_by_routes_windows_per_key(rt):
    g = StreamGraph(rt, name="g")
    src = g.source(range(8), name="src")
    k = g.key_by(src, lambda v: v % 2)
    w = g.window(k, TumblingCountWindow(2), fn=list)
    sink = g.sink(w)
    g.start()
    g.join()
    assert sink.collected == [[0, 2], [1, 3], [4, 6], [5, 7]]


def test_stream_stage_submits_tasks_and_waits(rt):
    # Interop direction 1: a stage body is task-runtime territory.
    g = StreamGraph(rt, name="g")
    src = g.source(range(10), name="src")

    def via_task(v):
        return wait_on(_triple(v))

    m = g.map(src, via_task)
    sink = g.sink(m)
    g.start()
    g.join()
    assert sink.collected == [3 * v for v in range(10)]


def test_dag_task_consumes_stream_results(rt):
    # Interop direction 2: graph output feeds an ordinary task DAG.
    g = StreamGraph(rt, name="g")
    src = g.source(range(12), name="src")
    w = g.window(src, TumblingCountWindow(3), fn=sum)
    sink = g.sink(w)
    g.start()
    g.join()
    fut = _total(sink.collected)
    assert wait_on(fut) == sum(range(12))


def test_retry_policy_reapplies_operator(rt):
    attempts = {}

    def flaky(v):
        if v == 5 and attempts.setdefault(5, 0) < 2:
            attempts[5] += 1
            raise ValueError("transient")
        return v

    g = StreamGraph(rt, name="g")
    src = g.source(range(10), name="src")
    m = g.map(src, flaky, name="m", on_failure="RETRY", max_retries=2)
    sink = g.sink(m)
    g.start()
    stats = g.join()
    assert sink.collected == list(range(10))
    assert stats["m"].retries == 2


def test_ignore_policy_drops_element(rt):
    def bad(v):
        if v % 4 == 0:
            raise ValueError("bad element")
        return v

    g = StreamGraph(rt, name="g")
    src = g.source(range(10), name="src")
    m = g.map(src, bad, name="m", on_failure="IGNORE")
    sink = g.sink(m)
    g.start()
    stats = g.join()
    assert sink.collected == [v for v in range(10) if v % 4 != 0]
    assert stats["m"].dropped == 3


def test_fail_policy_unwinds_graph_with_zero_leaks(rt):
    def bomb(v):
        if v == 7:
            raise RuntimeError("kaboom")
        return v

    g = StreamGraph(rt, name="g", capacity=2)
    src = g.source(range(100), name="src")
    m = g.map(src, bomb, name="m")
    sink = g.sink(m)
    g.start()
    with pytest.raises(StreamFailure) as ei:
        g.join(timeout=30.0)
    assert ei.value.stage == "m"
    assert isinstance(ei.value.__cause__, RuntimeError)
    assert all(s.depth() == 0 for s in g.streams)
    assert len(sink.collected) < 100
    # the runtime itself is unharmed — graph failures are graph-local
    assert wait_on(_triple(2)) == 6


def test_abort_unwinds_promptly(rt):
    g = StreamGraph(rt, name="g", capacity=2)
    src = g.source(range(10_000), name="src")
    m = g.map(src, lambda v: (time.sleep(0.001), v)[1], name="m")
    sink = g.sink(m)
    g.start()
    time.sleep(0.03)
    g.abort()
    g.join(timeout=30.0, raise_on_error=False)
    assert g.error is not None
    assert all(s.depth() == 0 for s in g.streams)
    assert len(sink.collected) < 10_000


def test_context_manager_joins_and_raises(rt):
    # context manager joins on exit
    g = StreamGraph(rt, name="g2")
    src = g.source(range(5), name="src")
    sink = g.sink(src)
    with g:
        pass
    assert sink.collected == [0, 1, 2, 3, 4]

    # a failing stage surfaces on exit
    g3 = StreamGraph(rt, name="g3")
    src = g3.source(range(5), name="src")
    bad = g3.map(src, lambda v: 1 / 0, name="bad")
    g3.sink(bad)
    with pytest.raises(StreamFailure):
        with g3:
            pass


def test_topology_validation(rt):
    g = StreamGraph(rt, name="g")
    src = g.source(range(3), name="src")
    with pytest.raises(RuntimeError, match="no consumer"):
        g.start()
    sink = g.sink(src)
    with pytest.raises(ValueError, match="single-consumer"):
        g.map(src, lambda v: v)
    with pytest.raises(ValueError, match="duplicate stage name"):
        g.source(range(3), name="src")
    g.start()
    with pytest.raises(RuntimeError, match="started"):
        g.source(range(3), name="late")
    g.join()
    assert sink.collected == [0, 1, 2]


def test_rejected_capacity_leaves_the_input_unconsumed(rt):
    g = StreamGraph(rt, name="g")
    src = g.source(range(3), name="src")
    for bad in (0, -1):
        with pytest.raises(ValueError, match="capacity"):
            g.window(src, TumblingCountWindow(2), capacity=bad)
        with pytest.raises(ValueError, match="capacity"):
            g.batch(src, 2, capacity=bad)
    # a chained stage hands records on by a direct call: nothing to bound
    with pytest.raises(TypeError, match="capacity"):
        g.map(src, lambda v: v, capacity=1)
    assert g.streams == []
    sink = g.sink(g.window(src, TumblingCountWindow(1), fn=sum, capacity=1))
    assert [s.capacity for s in g.streams] == [1]
    with g:
        pass
    assert sink.collected == [0, 1, 2]
    with pytest.raises(ValueError, match="capacity"):
        StreamGraph(rt, capacity=0)


def test_rate_controlled_source_paces_emission(rt):
    g = StreamGraph(rt, name="g")
    src = g.source(range(10), name="src", rate=200.0)
    sink = g.sink(src)
    g.start()
    t0 = time.monotonic()
    g.join()
    elapsed = time.monotonic() - t0
    assert sink.collected == list(range(10))
    assert elapsed >= 0.04  # 10 records at 200/s ≈ 50ms of pacing


class _Pulls:
    """An instrumented feed: records when each ``next()`` starts and
    busy-waits *work_s* per item (``n=None``: endless)."""

    def __init__(self, n=None, work_s=0.0):
        self.n, self.work_s = n, work_s
        self.times: list[float] = []

    def __iter__(self):
        return self

    def __next__(self):
        t = time.monotonic()
        if self.n is not None and len(self.times) >= self.n:
            raise StopIteration
        self.times.append(t)
        while time.monotonic() < t + self.work_s:
            pass
        return len(self.times) - 1


def _wait_for(cond, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not cond():
        assert time.monotonic() < deadline, "condition not reached"
        time.sleep(0.002)


def test_paced_source_pulls_each_record_at_its_due_time(rt):
    rate, n = 100.0, 8
    pulls = _Pulls(n)
    g = StreamGraph(rt, name="g")
    sink = g.sink(g.source(pulls, name="src", rate=rate))
    start = time.monotonic()
    g.start()
    g.join()
    assert sink.collected == list(range(n))
    for k, t in enumerate(pulls.times, start=1):
        assert t >= start + k / rate - 0.001, f"record {k} pulled early"


def test_drain_during_paced_sleep_pulls_nothing_more(rt):
    pulls = _Pulls()  # endless: only the drain ends it
    g = StreamGraph(rt, name="g")
    sink = g.sink(g.source(pulls, name="src", rate=50.0))
    g.start()
    _wait_for(lambda: len(sink.collected) >= 3)
    g.initiate_drain()  # the source is asleep until its next due time
    stats = g.join(timeout=10.0)
    assert len(pulls.times) == stats["src"].n_out == len(sink.collected)
    assert sink.collected == list(range(len(pulls.times)))


def test_paced_source_closes_one_period_after_its_last_record(rt):
    rate, n = 50.0, 5
    g = StreamGraph(rt, name="g")
    sink = g.sink(g.source(_Pulls(n), name="src", rate=rate))
    g.start()
    src = g.join()["src"]
    assert sink.collected == list(range(n))
    # end of input is seen at the next due time, (n + 1) / rate
    assert n / rate <= src.finished_at - src.started_at <= (n + 1) / rate + 0.1


def test_unpaced_source_pulls_after_its_chain_passed_the_record_on(rt):
    gate = threading.Event()
    pulls = _Pulls(50)
    g = StreamGraph(rt, name="g")
    held = g.map(g.source(pulls, name="src"), lambda v: (gate.wait(), v)[1])
    sink = g.sink(held)
    g.start()
    try:
        # record 0 is still inside the chain's map: nothing more is pulled
        _wait_for(lambda: len(pulls.times) >= 1)
        time.sleep(0.02)
        assert len(pulls.times) == 1
        assert sink.collected == []
    finally:
        gate.set()
    g.join()
    assert sink.collected == list(range(50))


def test_full_boundary_stream_stops_an_unpaced_source(rt):
    cap, gate = 3, threading.Event()
    pulls = _Pulls(50)
    g = StreamGraph(rt, name="g")
    src = g.source(pulls, name="src")
    ones = g.window(src, TumblingCountWindow(1), fn=sum, capacity=cap)
    sink = g.sink(ones, lambda v: gate.wait(), collect=True)
    g.start()
    try:
        # the sink holds record 0, the stream holds cap more, and the
        # source's chain waits to put the next one it has already pulled
        _wait_for(lambda: len(pulls.times) >= cap + 2)
        time.sleep(0.02)
        assert len(pulls.times) == cap + 2
        assert sink.collected == []
    finally:
        gate.set()
    g.join()
    assert sink.collected == [True] * 50


@pytest.mark.parametrize("rate", [0, 0.0, -1.0, float("nan"), float("inf")])
def test_source_rate_must_be_positive_and_finite(rate):
    g = StreamGraph(None, name="g")
    with pytest.raises(ValueError, match="rate must be a positive finite"):
        g.source(range(3), name="src", rate=rate)
    g.source(range(3), name="src", rate=None)  # unpaced is still fine


def test_source_stage_stats_time_the_pull():
    work_s, n = 0.005, 6
    with runtime(observability="metrics") as rt:
        g = StreamGraph(rt, name="g")
        g.sink(g.source(_Pulls(n, work_s=work_s), name="src"), name="out")
        g.start()
        snap = g.join()["src"].snapshot()
        hists = rt.metrics_registry.snapshot()["histograms"]
    assert snap["n_out"] == n
    assert snap["p50_ms"] >= work_s * 1e3
    (src_hist,) = [
        h
        for h in hists
        if h["name"] == "repro_stream_stage_seconds" and h["labels"]["stage"] == "src"
    ]
    assert src_hist["count"] == n and src_hist["sum"] >= n * work_s


def test_backpressure_bounds_queue_depth():
    with runtime() as rt:
        g = StreamGraph(rt, name="g", capacity=3)
        src = g.source(range(200), name="src")
        slow = g.map(src, lambda v: (time.sleep(0.0005), v)[1], name="slow")
        sink = g.sink(slow)
        g.start()
        g.join()
        assert sink.collected == list(range(200))
        for s in g.streams:
            assert s.stats()["high_water"] <= 3


def test_stage_stats_snapshot_shape(rt):
    g = StreamGraph(rt, name="g")
    src = g.source(range(20), name="src")
    m = g.map(src, lambda v: v, name="m")
    g.sink(m, name="out")
    g.start()
    stats = g.join()
    snap = stats["m"].snapshot()
    assert snap["n_in"] == snap["n_out"] == 20
    assert snap["p50_ms"] >= 0.0 and snap["p99_ms"] >= snap["p50_ms"] * 0.0
    # nearest-rank quantiles of the reservoir, whatever order it filled in
    stats["m"].latencies.clear()
    stats["m"].latencies.extend([0.005, 0.001, 0.003, 0.002, 0.004])
    snap = stats["m"].snapshot()
    assert (snap["p50_ms"], snap["p99_ms"]) == (3.0, 5.0)
    meta = g.metrics_snapshot()
    assert set(meta["stages"]) == {"src", "m", "out"}
    assert all(v["closed"] for v in meta["streams"].values())


def test_published_record_counts_are_the_stage_stats():
    """``repro_stream_records_total`` is ``StageStats.n_in / n_out``,
    folded in by ``publish_gauges`` — nothing counts a record twice."""
    with runtime(observability="metrics") as rt:
        g = StreamGraph(rt, name="g")
        src = g.source(range(30), name="src")
        kept = g.filter(src, lambda v: v % 3 != 0, name="kept")
        g.sink(kept, name="out")
        g.start()
        stats = g.join()
        assert rt.metrics_registry.snapshot()["counters"] == []
        g.publish_gauges()
        g.publish_gauges()  # a second fold adds nothing
        snap = rt.metrics()
    got = {
        (c["labels"]["stage"], c["labels"]["port"]): c["value"]
        for c in snap["counters"]
        if c["name"] == "repro_stream_records_total"
    }
    assert got == {
        ("src", "out"): stats["src"].n_out,
        ("kept", "in"): stats["kept"].n_in,
        ("kept", "out"): stats["kept"].n_out,
        ("out", "in"): stats["out"].n_in,
        ("out", "out"): stats["out"].n_out,  # what the sink delivered
    }
    assert got["src", "out"] == got["kept", "in"] == 30 and got["kept", "out"] == 20
