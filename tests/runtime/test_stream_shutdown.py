"""Runtime/streaming lifecycle edges: shutdown-drain of stream scopes,
EOS with in-flight windows, and stream-stage threads that only poll
task futures."""

from __future__ import annotations

import itertools
import threading
import time

import pytest

from repro.runtime import Runtime, task, wait_on
from repro.runtime.config import RuntimeConfig
from repro.streaming import StreamGraph, TumblingCountWindow


@task(returns=1)
def inc(x):
    return x + 1


@task(returns=1)
def double(x):
    return x * 2


def runtime(**kw):
    kw.setdefault("executor", "threads")
    kw.setdefault("max_workers", 2)
    kw.setdefault("debug_invariants", True)
    return Runtime(config=RuntimeConfig(**kw))


def test_eos_flushes_in_flight_windows_through_shutdown():
    """A bounded feed whose length does not divide the window size: the
    open (partial) window must flush at EOS and still be delivered when
    ``shutdown(wait=True)`` runs with the graph already draining."""
    rt = runtime()
    g = StreamGraph(rt, name="g", capacity=4)
    src = g.source(range(10), name="src")
    w = g.window(src, TumblingCountWindow(4), fn=list)
    sink = g.sink(w)
    g.start()
    # wait for EOS to be emitted (source thread done) but do NOT join
    # the graph: the partial window [8, 9] is still in flight when
    # shutdown's drain hook joins the stages before the unfinished wait.
    g.stages[0].thread.join(timeout=10.0)
    rt.shutdown(wait=True)
    g.join(timeout=30.0)
    assert sink.collected == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
    assert all(s.depth() == 0 for s in g.streams)
    assert rt.check_invariants(quiesced=True) == []


def test_shutdown_mid_flight_drains_consistently():
    """shutdown(wait=True) against a pipeline still pumping: whatever
    was emitted must come out as exact reference windows (including the
    flushed partial), with zero leaked slots."""
    rt = runtime()
    g = StreamGraph(rt, name="g", capacity=4)
    src = g.source(itertools.count(), name="src", rate=2000.0)
    m = g.map(src, lambda v: v * 2, name="m")
    w = g.window(m, TumblingCountWindow(5), fn=list)
    sink = g.sink(w)
    g.start()
    time.sleep(0.05)
    rt.shutdown(wait=True)
    g.join(timeout=30.0, raise_on_error=False)
    assert g.error is None  # a drain, not an abort
    emitted = g.stages[0].stats.n_out
    assert 0 < emitted  # and the infinite source really was cut short
    vals = [v * 2 for v in range(emitted)]
    expected = [vals[i : i + 5] for i in range(0, len(vals), 5)]
    assert sink.collected == expected
    assert all(s.depth() == 0 for s in g.streams)
    assert rt.check_invariants(quiesced=True) == []


def test_done_polling_stage_progresses_with_downstream_parked_on_full_queue():
    """A stream stage that polls ``Future.done`` (never entering the
    runtime) must still see its task run — even while the downstream
    stage sits parked on a full queue and the pool's workers are the
    only threads left to execute it."""
    rt = runtime(max_workers=2)
    try:
        g = StreamGraph(rt, name="g", capacity=1)
        src = g.source(range(30), name="src")

        def via_task(v):
            fut = inc(v)
            # poll, don't wait_on: only the pool can run the task
            while not fut.done:
                time.sleep(0.0005)
            return fut.result()

        m = g.map(src, via_task, name="m")
        slow = g.map(m, lambda v: (time.sleep(0.002), v)[1], name="slow")
        sink = g.sink(slow)
        g.start()
        g.join(timeout=60.0)
        assert sink.collected == [v + 1 for v in range(30)]
        assert all(s.depth() == 0 for s in g.streams)
    finally:
        rt.shutdown()
    assert rt.check_invariants(quiesced=True) == []


def test_shutdown_drains_fire_and_forget_stage_submissions():
    """Tasks submitted by stage bodies without a wait are ordinary
    unfinished work: ``shutdown(wait=True)`` must run them to
    completion after the stage threads drain."""
    rt = runtime()
    futures = []
    lock = threading.Lock()

    def submit_only(v):
        fut = double(v)
        with lock:
            futures.append((v, fut))
        return v

    g = StreamGraph(rt, name="g", capacity=4)
    src = g.source(range(20), name="src")
    m = g.map(src, submit_only, name="m")
    sink = g.sink(m)
    g.start()
    g.stages[0].thread.join(timeout=10.0)  # feed fully emitted
    rt.shutdown(wait=True)
    g.join(timeout=30.0)
    assert sink.collected == list(range(20))
    assert len(futures) == 20
    for v, fut in futures:
        assert fut.done
        assert fut.result() == v * 2
    assert rt.check_invariants(quiesced=True) == []


def test_abort_interrupts_stage_blocked_on_stream():
    """A workflow abort must reach a stage parked on a stream wait (the
    interrupt registry) and unwind the graph with a chained cause."""

    @task(returns=1, name="aborting_boom", on_failure="FAIL")
    def boom():
        raise RuntimeError("fatal task")

    from repro.runtime.engine import pop_runtime, push_runtime
    from repro.runtime.exceptions import WorkflowAbortedError
    from repro.streaming import StreamFailure

    rt = runtime()
    push_runtime(rt)
    try:
        g = StreamGraph(rt, name="g", capacity=2)
        src = g.source(itertools.count(), name="src", rate=500.0)
        sink = g.sink(src, fn=lambda v: v, collect=True)
        g.start()
        time.sleep(0.03)
        boom()
        with pytest.raises(WorkflowAbortedError):
            rt.barrier()
        g.join(timeout=30.0, raise_on_error=False)
        assert g.error is not None
        err = g.error
        cause = err.__cause__ if isinstance(err, StreamFailure) else err
        assert isinstance(cause, WorkflowAbortedError)
        assert all(s.depth() == 0 for s in g.streams)
    finally:
        pop_runtime(rt)
        rt.shutdown()


def test_second_graph_after_clean_drain():
    """Drain hooks unregister: a second graph on the same runtime must
    behave identically after the first joined."""
    with runtime() as rt:
        for round_ in range(2):
            g = StreamGraph(rt, name=f"g{round_}", capacity=4)
            src = g.source(range(10), name="src")
            m = g.map(src, lambda v: wait_on(inc(v)), name="m")
            sink = g.sink(m)
            g.start()
            g.join()
            assert sink.collected == [v + 1 for v in range(10)]
