"""Streaming scenarios under the hang watchdog: backpressure, a failing
operator under RETRY/IGNORE, abort and shutdown mid-flight, and the
windowing edge cases (late and out-of-order records, EOS versus poison
with open windows).  Every scenario checks its output against a
reference computed offline, then audits the graph (zero leaked queue
slots) and the runtime (quiesced, no invariant violations)."""

from __future__ import annotations

import threading
import time

import pytest
from hypothesis import given, strategies as st

from repro.runtime import task
from repro.runtime.config import RuntimeConfig
from repro.runtime.engine import Runtime, pop_runtime, push_runtime
from repro.runtime.exceptions import RuntimeStateError, WorkflowAbortedError
from repro.runtime.failures import FAIL, IGNORE, RETRY
from repro.runtime.flightrec import run_under_watchdog
from repro.streaming import (
    Record,
    SlidingTimeWindow,
    StreamFailure,
    StreamGraph,
    TumblingCountWindow,
    TumblingTimeWindow,
    Watermark,
    run_windowed,
)
from tests.conftest import matrix_settings


@task(returns=1, name="stream_stress_boom", on_failure="FAIL")
def _boom() -> int:
    raise RuntimeError("injected workflow abort")


def _windows_of(values: list[int], w: int) -> list[int]:
    """Reference tumbling-count window sums (partial tail included —
    the EOS flush semantics of :class:`TumblingCountWindow`)."""
    return [sum(values[i : i + w]) for i in range(0, len(values), w)]


def _feed(n: int) -> list[int]:
    """What the standard pipeline keeps of ``range(n)``."""
    return [3 * v + 1 for v in range(n) if (3 * v + 1) % 5 != 0]


def _audit_streams(g: StreamGraph) -> None:
    """Every stream ends empty — drained, or cleared by the poison of a
    failed graph — with all its credits back."""
    for s in g.streams:
        st = s.stats()
        assert st["depth"] == 0, f"stream {st['name']} still holds {st['depth']}"
        assert st["credits"] == st["capacity"], st


def _pipeline(g: StreamGraph, n: int, w: int, map_fn, sink_fn, **map_opts):
    src = g.source(range(n), name="src")
    mapped = g.map(src, map_fn, name="triple", **map_opts)
    kept = g.filter(mapped, lambda v: v % 5 != 0, name="drop5")
    windows = g.window(kept, TumblingCountWindow(w), fn=sum, name="wsum")
    return g.sink(windows, fn=sink_fn, name="sink", collect=True)


def _run(scenario, **params) -> int:
    """Run *scenario(rt, **params)* on a fresh runtime under the hang
    watchdog; returns the number of tasks the runtime saw."""

    def body() -> int:
        cfg = RuntimeConfig(
            executor="threads",
            max_workers=2,
            name=f"stream-{scenario.__name__}",
        )
        rt = Runtime(config=cfg)
        push_runtime(rt)
        try:
            scenario(rt, **params)
        finally:
            rt.shutdown()
            pop_runtime(rt)
        assert rt.check_invariants(quiesced=True) == []
        # only the workflow-abort scenario ends aborted
        assert (rt.aborted is not None) == params.get("runtime_abort", False)
        return rt.n_tasks

    outcome = run_under_watchdog(body, 60.0, f"stream {scenario.__name__}")
    if "error" in outcome:
        raise outcome["error"]
    assert outcome["ok"], "\n".join(outcome["problems"])
    return outcome["value"]


# ----------------------------------------------------------------------
# the four scenario families
# ----------------------------------------------------------------------
def backpressure(rt, n, cap, w, stall):
    """A fast producer against a tiny-capacity pipeline whose consumer
    stalls, then sprints: every element arrives once, in order, and no
    queue ever holds more than its capacity."""
    g = StreamGraph(rt, name="bp", capacity=cap)
    seen = {"count": 0}

    def slow_then_fast(v: int) -> int:
        seen["count"] += 1
        if seen["count"] <= stall:
            time.sleep(0.002)
        return v

    sink = _pipeline(g, n, w, lambda v: 3 * v + 1, slow_then_fast)
    g.start()
    stats = g.join()
    assert sink.collected == _windows_of(_feed(n), w)
    for s in g.streams:
        st = s.stats()
        assert st["high_water"] <= st["capacity"], st
    assert stats["src"].n_out == n
    _audit_streams(g)


def retry(rt, n, w, fail_values, ignore):
    """An operator failing once on chosen elements: RETRY re-applies it,
    IGNORE drops the element."""
    attempts: dict[int, int] = {}

    def flaky(v: int) -> int:
        if v in fail_values and attempts.get(v, 0) < 1:
            attempts[v] = attempts.get(v, 0) + 1
            raise ValueError(f"transient failure on {v}")
        return 3 * v + 1

    g = StreamGraph(rt, name="rt", capacity=8)
    policy = {"on_failure": IGNORE if ignore else RETRY, "max_retries": 2}
    sink = _pipeline(g, n, w, flaky, None, **policy)
    g.start()
    triple = g.join()["triple"]
    survivors = [v for v in range(n) if not (ignore and v in fail_values)]
    filtered = [3 * v + 1 for v in survivors if (3 * v + 1) % 5 != 0]
    assert sink.collected == _windows_of(filtered, w)
    assert (triple.dropped if ignore else triple.retries) == len(fail_values)
    _audit_streams(g)


def abort(rt, runtime_abort, kill_at):
    """A terminal operator failure (FAIL), or a workflow abort from an
    ordinary DAG task mid-stream: the graph unwinds promptly."""
    n = 2000

    def paced(v: int) -> int:
        if v == kill_at and not runtime_abort:
            raise RuntimeError(f"injected operator failure at {v}")
        time.sleep(0.0005)
        return 3 * v + 1

    g = StreamGraph(rt, name="ab", capacity=8)
    sink = _pipeline(g, n, 4, paced, None, on_failure=FAIL)
    g.start()
    if runtime_abort:
        # The stages observe the abort through the interrupt registry.
        time.sleep(0.05)
        _boom()
        with pytest.raises(WorkflowAbortedError):
            rt.barrier()
    g.join(timeout=60.0, raise_on_error=False)
    assert g.error is not None, "graph finished cleanly, expected a failure"
    if runtime_abort:
        cause = getattr(g.error, "__cause__", None) or g.error
        assert isinstance(cause, WorkflowAbortedError), g.error
    assert len(sink.collected) < len(_windows_of(_feed(n), 4))
    _audit_streams(g)


def shutdown(rt, w, after):
    """``Runtime.shutdown(wait=True)`` mid-flight: the drain hook stops
    the source, in-flight windows flush, and what was delivered is the
    reference over the prefix the source emitted."""
    n = 5000

    def paced(v: int) -> int:
        time.sleep(0.0005)
        return 3 * v + 1

    g = StreamGraph(rt, name="sd", capacity=8)
    sink = _pipeline(g, n, w, paced, None)
    g.start()
    time.sleep(after)
    rt.shutdown(wait=True)
    g.join(timeout=60.0, raise_on_error=False)
    error = g.error
    if isinstance(error, StreamFailure):
        error = error.__cause__
    assert error is None or isinstance(error, RuntimeStateError), g.error
    emitted = g.stages[0].stats.n_out
    assert emitted < n, "source ran to completion: the drain never hit"
    if g.error is None:
        assert sink.collected == _windows_of(_feed(emitted), w)
    _audit_streams(g)


#: Parameters of the seeds pinned when these scenarios were a seeded
#: harness (14 is the workflow-abort branch of the abort family).
PINNED = {
    0: (backpressure, {"n": 248, "cap": 5, "w": 2, "stall": 9}),
    1: (retry, {"n": 137, "w": 6, "ignore": True,
                "fail_values": {16, 30, 53, 65, 97, 115, 120, 126}}),
    2: (abort, {"runtime_abort": False, "kill_at": 64}),
    3: (shutdown, {"w": 4, "after": 0.109}),
    14: (abort, {"runtime_abort": True, "kill_at": 229}),
}


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_each_scenario_family_passes(seed):
    scenario, params = PINNED[seed]
    _run(scenario, **params)


def test_runtime_abort_variant_is_exercised():
    scenario, params = PINNED[14]
    assert _run(scenario, **params) >= 1  # the _boom task really ran


def test_retry_policy_variant():
    _run(retry, n=199, w=4, ignore=False, fail_values={7, 91, 119, 135, 166, 176, 189, 198})


def test_reference_windows_helper():
    assert _windows_of([1, 2, 3, 4, 5], 2) == [3, 7, 5]
    assert _windows_of([], 3) == []


# ----------------------------------------------------------------------
# windowing edge cases, each against ``run_windowed`` replaying the
# same input offline
# ----------------------------------------------------------------------
def _source_elements(values, timestamps, interval):
    """The records and watermarks a source stage emits for *values*."""
    out = []
    for i, v in enumerate(values):
        out.append(Record(v, ts=timestamps[i]))
        if (i + 1) % interval == 0:
            out.append(Watermark(timestamps[i]))
    if values:
        out.append(Watermark(timestamps[-1]))
    return out


def _windowed_graph(rt, values, timestamps, interval, spec, items=None):
    g = StreamGraph(rt, name="win", capacity=4)
    src = g.source(
        values if items is None else items,
        name="src",
        timestamps=lambda i, v: timestamps[i],
        watermark_interval=interval,
    )
    sink = g.sink(g.window(src, spec, fn=tuple, name="w"), name="sink", collect=True)
    return g, sink


@pytest.mark.parametrize(
    "spec", [TumblingTimeWindow(10.0), SlidingTimeWindow(10.0, 5.0)], ids=["tumbling", "sliding"]
)
def test_late_records_behind_a_watermark(spec):
    """Records older than a watermark already emitted reopen their
    closed window; the stream emits exactly what the offline replay
    of the same elements does."""
    timestamps = [1.0, 4.0, 12.0, 15.0, 3.0, 21.0, 7.0, 33.0, 2.0, 35.0]
    values = list(range(len(timestamps)))

    def scenario(rt):
        g, sink = _windowed_graph(rt, values, timestamps, 3, spec)
        with g:
            pass
        expected = run_windowed(spec, _source_elements(values, timestamps, 3), fn=tuple)
        assert sink.collected == [r.value for r in expected]
        # the late records reopened windows already closed once
        assert len({r.ts for r in expected}) < len(expected)
        _audit_streams(g)

    _run(scenario)


def test_out_of_order_records_inside_a_window():
    """Arrival order inside an open window is kept; the window closes
    on the watermark regardless of the disorder."""
    timestamps = [9.0, 1.0, 5.0, 3.0, 14.0, 11.0, 19.0, 10.0, 25.0, 21.0]
    values = [t * 10 for t in timestamps]
    spec = TumblingTimeWindow(10.0)

    def scenario(rt):
        g, sink = _windowed_graph(rt, values, timestamps, 4, spec)
        with g:
            pass
        expected = run_windowed(spec, _source_elements(values, timestamps, 4), fn=tuple)
        assert sink.collected == [r.value for r in expected]
        assert sink.collected[0] == (90.0, 10.0, 50.0, 30.0)  # arrival order
        _audit_streams(g)

    _run(scenario)


@matrix_settings()
@given(
    timestamps=st.lists(st.integers(0, 40).map(float), min_size=1, max_size=12),
    interval=st.integers(1, 4),
    spec=st.sampled_from([TumblingTimeWindow(10.0), SlidingTimeWindow(10.0, 5.0)]),
)
def test_time_windows_match_the_offline_replay(timestamps, interval, spec):
    """Any event-time order — late, out of order, repeated — streams to
    what the offline replay of the same elements emits."""
    values = list(range(len(timestamps)))

    def scenario(rt):
        g, sink = _windowed_graph(rt, values, timestamps, interval, spec)
        with g:
            pass
        expected = run_windowed(spec, _source_elements(values, timestamps, interval), fn=tuple)
        assert sink.collected == [r.value for r in expected]
        _audit_streams(g)

    _run(scenario)


@pytest.mark.parametrize("end", ["eos", "poison"])
def test_eos_versus_poison_with_open_windows(end):
    """The source parks after its last watermark, with windows still
    open.  EOS flushes them (the offline replay); poison drops them
    (the replay's windows the watermarks closed) and leaks no slot."""
    timestamps = [1.0, 6.0, 12.0, 18.0, 24.0, 27.0, 31.0, 38.0]
    values = list(range(len(timestamps)))
    spec = TumblingTimeWindow(10.0)
    elements = _source_elements(values, timestamps, 4)
    offline = run_windowed(spec, elements, fn=tuple)
    closed = [r.value for r in offline if r.ts <= timestamps[-1]]
    assert len(closed) < len(offline)  # windows are open at the end
    release = threading.Event()

    def items():
        yield from values
        release.wait(30)  # parked after the last watermark

    def scenario(rt):
        g, sink = _windowed_graph(rt, values, timestamps, 4, spec, items=items)
        g.start()
        deadline = time.monotonic() + 30
        while len(sink.collected) < len(closed) and time.monotonic() < deadline:
            time.sleep(0.001)
        if end == "poison":
            g.abort()
        release.set()
        g.join(timeout=30, raise_on_error=False)
        if end == "eos":
            assert g.error is None
            assert sink.collected == [r.value for r in offline]
        else:
            assert isinstance(g.error, StreamFailure)
            assert sink.collected == closed
        _audit_streams(g)

    _run(scenario)
