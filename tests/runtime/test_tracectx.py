"""Tests of :mod:`repro.runtime.tracectx`: context minting, the W3C
traceparent wire form, propagation through the thread's binding, and
the engine integration that stamps trace lineage onto
:class:`TaskRecord`s."""

from __future__ import annotations

import pickle
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.runtime import Runtime, active, task, wait_on
from repro.runtime.config import RuntimeConfig
from repro.runtime.tracectx import (
    TraceContext,
    child_of,
    current_context,
    new_trace,
)


# ----------------------------------------------------------------------
# minting + shapes
# ----------------------------------------------------------------------
def test_new_trace_shapes():
    ctx = new_trace()
    assert len(ctx.trace_id) == 32 and int(ctx.trace_id, 16) >= 0
    assert len(ctx.span_id) == 16 and int(ctx.span_id, 16) >= 0
    assert ctx.parent_id is None


def test_child_keeps_trace_and_parents_under_span():
    root = new_trace()
    child = root.child()
    assert child.trace_id == root.trace_id
    assert child.span_id != root.span_id
    assert child.parent_id == root.span_id
    grand = child.child()
    assert grand.parent_id == child.span_id
    assert grand.trace_id == root.trace_id


def test_span_ids_unique_across_many_mints():
    root = new_trace()
    ids = {root.child().span_id for _ in range(1000)}
    assert len(ids) == 1000


def test_child_of_none_is_a_new_root():
    ctx = child_of(None)
    assert ctx.parent_id is None
    parent = new_trace()
    assert child_of(parent).parent_id == parent.span_id


# ----------------------------------------------------------------------
# wire form
# ----------------------------------------------------------------------
def test_header_roundtrip_drops_parent():
    ctx = new_trace().child()
    header = ctx.to_header()
    assert header == f"00-{ctx.trace_id}-{ctx.span_id}-01"
    back = TraceContext.from_header(header)
    assert back.trace_id == ctx.trace_id
    assert back.span_id == ctx.span_id
    # the parent does not travel: the receiver mints a child instead
    assert back.parent_id is None


@pytest.mark.parametrize(
    "header",
    [
        "",
        "00-abc-def-01",
        "00-" + "g" * 32 + "-" + "0" * 16 + "-01",  # non-hex
        "00-" + "0" * 31 + "-" + "0" * 16 + "-01",  # short trace id
        "00-" + "0" * 32 + "-" + "0" * 15 + "-01",  # short span id
        "no dashes here",
        # everything int(x, 16) swallows but W3C does not spell: integer
        # storage would canonicalise each of these into another header
        "00-0x" + "a" * 30 + "-" + "b" * 16 + "-01",  # 0x prefix
        "00-+" + "a" * 31 + "-" + "b" * 16 + "-01",  # sign
        "00- " + "a" * 30 + " -" + "b" * 16 + "-01",  # space-padded id
        "00-" + "A" * 32 + "-" + "b" * 16 + "-01",  # upper case
        "00-" + "0" * 32 + "-" + "b" * 16 + "-01",  # all-zero trace id
        "00-" + "a" * 32 + "-" + "0" * 16 + "-01",  # all-zero span id
    ],
)
def test_from_header_rejects_malformed(header):
    with pytest.raises(ValueError):
        TraceContext.from_header(header)


@given(
    trace=st.integers(1, (1 << 128) - 1) | st.integers(1, 0xFFFF),
    span=st.integers(1, (1 << 64) - 1) | st.integers(1, 0xFF),
)
def test_header_roundtrip_keeps_leading_zero_nibbles(trace, span):
    # ids are integers inside; zero-padding is the classic int -> hex bug
    ctx = TraceContext(trace_id=trace, span_id=span)
    header = ctx.to_header()
    assert header == "00-%032x-%016x-01" % (trace, span)
    back = TraceContext.from_header(header)
    assert back == ctx
    assert back.to_header() == header


def test_context_is_a_value_built_from_either_form():
    ctx = new_trace().child()
    same = TraceContext(
        trace_id=ctx.trace_id, span_id=ctx.span_id, parent_id=ctx.parent_id
    )
    assert same == ctx and hash(same) == hash(ctx) and len({same, ctx}) == 1
    assert same != ctx.child() and ctx != "not a context"
    assert pickle.loads(pickle.dumps(ctx)) == ctx
    assert ctx.trace_id in repr(ctx) and ctx.span_id in repr(ctx)


# ----------------------------------------------------------------------
# ambient propagation
# ----------------------------------------------------------------------
def test_set_context_returns_previous():
    assert current_context() is None
    a, b = new_trace(), new_trace()
    with Runtime(executor="sequential") as rt:
        prev = rt.bind_current_thread(a)
        assert prev is None and current_context() is a
        inner = rt.bind_current_thread(b)
        assert inner.trace_ctx is a and current_context() is b
        rt.release_current_thread(inner)
        assert current_context() is a
        rt.release_current_thread(prev)
        assert current_context() is None


def test_use_context_restores_on_exit_even_on_error():
    outer = new_trace()
    with Runtime(executor="sequential") as rt:
        prev = rt.bind_current_thread(outer)
        try:
            with pytest.raises(RuntimeError):
                inner = rt.bind_current_thread(new_trace())
                try:
                    assert current_context() is not outer
                    raise RuntimeError("boom")
                finally:
                    rt.release_current_thread(inner)
            assert current_context() is outer
        finally:
            rt.release_current_thread(prev)
    assert current_context() is None


def test_ambient_context_is_per_thread():
    ctx = new_trace()
    seen = {}

    def probe():
        seen["other"] = current_context()

    with Runtime(executor="sequential") as rt:
        prev = rt.bind_current_thread(ctx)
        try:
            t = threading.Thread(target=probe)
            t.start()
            t.join()
            assert current_context() is ctx
        finally:
            rt.release_current_thread(prev)
    assert seen["other"] is None


# ----------------------------------------------------------------------
# engine integration: records carry trace lineage
# ----------------------------------------------------------------------
@task(returns=1)
def _leaf(x):
    return x + 1


@task(returns=1)
def _parent_task(x):
    # nested submission: the engine's ambient context makes this a child
    return _leaf(x)


def test_records_stamp_trace_and_nested_parenting():
    # backend pinned: inside a worker process a nested call runs inline
    # (no runtime there), so only the thread backend records the child
    with Runtime(executor="threads", backend="threads") as rt:
        assert wait_on(_parent_task(1)) == 2
        trace = rt.trace()
    records = {r.name: r for r in trace}
    outer, leaf = records["_parent_task"], records["_leaf"]
    assert outer.trace_id and outer.span_id
    assert leaf.trace_id == outer.trace_id
    assert leaf.parent_span_id == outer.span_id


def test_sibling_roots_get_distinct_traces():
    with Runtime(executor="threads") as rt:
        futures = [_leaf(i) for i in range(3)]
        assert [wait_on(f) for f in futures] == [1, 2, 3]
        trace = rt.trace()
    trace_ids = {r.trace_id for r in trace}
    assert len(trace_ids) == 3  # no shared ancestor: three root traces


def test_ambient_caller_context_adopts_submissions():
    root = new_trace()
    with Runtime(executor="threads") as rt:
        prev = rt.bind_current_thread(root)
        try:
            assert wait_on(_leaf(1)) == 2
        finally:
            rt.release_current_thread(prev)
        trace = rt.trace()
    (rec,) = list(trace)
    assert rec.trace_id == root.trace_id
    assert rec.parent_span_id == root.span_id


def test_collect_trace_off_skips_minting():
    cfg = RuntimeConfig(executor="threads", collect_trace=False)
    with Runtime(config=cfg) as rt:
        assert wait_on(_leaf(1)) == 2
        assert rt.trace() is None or len(rt.trace()) == 0


@task(returns=1, max_retries=2)
def _flaky_once():
    from repro.runtime.backends import current_attempt

    if current_attempt() == 0:
        raise ValueError("first attempt fails")
    return "ok"


def test_retry_spans_share_trace_and_parent_under_failed_attempt():
    with Runtime(executor="threads") as rt:
        assert wait_on(_flaky_once()) == "ok"
        trace = rt.trace()
    records = sorted(trace, key=lambda r: r.attempt)
    assert len(records) == 2
    failed, retried = records
    assert retried.trace_id == failed.trace_id
    assert retried.span_id != failed.span_id
    assert retried.parent_span_id == failed.span_id


# ----------------------------------------------------------------------
# a body's context is its attempt's
# ----------------------------------------------------------------------
@task(returns=1)
def _context_and_graph_span():
    """This body's context, its attempt's span, and the parent span of
    a stream graph started inside it."""
    from repro.streaming import StreamGraph

    bound = active._tls.bound
    g = StreamGraph(name="inside-a-body")
    g.sink(g.source(range(3), name="src"), name="out", collect=True)
    with g:
        pass
    return current_context(), bound.trace_ctx, g.trace_ctx, g.results("out")


@pytest.mark.parametrize("executor", ["sequential", "threads"])
def test_a_body_context_is_its_attempt_span_and_a_graph_parents_under_it(executor):
    with Runtime(executor=executor, backend="threads", max_workers=2) as rt:
        f = _context_and_graph_span()
        ctx, attempt_ctx, graph_ctx, results = wait_on(f)
        inst = rt._by_root[f.task_id]
    assert results == [0, 1, 2]
    assert ctx is attempt_ctx is inst.trace_ctx
    assert graph_ctx.trace_id == ctx.trace_id
    assert graph_ctx.parent_id == ctx.span_id
