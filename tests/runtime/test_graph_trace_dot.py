"""TaskGraph analyses, tracing, DOT export and the run's OTLP record."""

from __future__ import annotations

import json
import platform

import numpy as np

import repro

from repro.runtime import (
    Runtime,
    Trace,
    graph_summary,
    summarize_trace,
    task,
    to_dot,
    wait_on,
)
from repro.runtime.dag import TaskGraph
from repro.runtime.dot import color_for
from repro.runtime.otlp import otlp_to_traces, span_attributes, trace_to_otlp
from repro.runtime.tracing import TaskRecord, estimate_nbytes


@task(returns=1)
def produce(n):
    return np.ones(n)


@task(returns=1)
def combine(a, b):
    return a + b


def _run_diamond(rt):
    a = produce(4)
    b = combine(a, a)
    c = combine(a, a)
    d = combine(b, c)
    wait_on(d)


def test_graph_levels_and_depth(seq_runtime):
    _run_diamond(seq_runtime)
    g = seq_runtime.graph
    assert g.n_tasks == 4
    assert g.depth() == 3
    levels = g.levels()
    assert len(levels) == 3
    assert len(levels[1]) == 2
    assert g.max_width() == 2


def test_count_by_name(seq_runtime):
    _run_diamond(seq_runtime)
    counts = seq_runtime.graph.count_by_name()
    assert counts == {"produce": 1, "combine": 3}


def test_graph_summary(seq_runtime):
    _run_diamond(seq_runtime)
    s = graph_summary(seq_runtime.graph)
    assert s["n_tasks"] == 4
    assert s["n_edges"] == 4
    assert s["depth"] == 3
    assert s["by_name"]["combine"] == 3


def test_empty_graph_analyses():
    g = TaskGraph()
    assert g.depth() == 0
    assert g.max_width() == 0
    assert g.levels() == []


def test_dot_export(seq_runtime):
    _run_diamond(seq_runtime)
    dot = to_dot(seq_runtime.graph, title="diamond")
    assert dot.startswith("// execution graph: diamond")
    assert "digraph" in dot
    assert dot.count("->") == 4
    # every node present
    for i in range(4):
        assert f"t{i} " in dot or f"t{i}[" in dot


def test_color_stability():
    assert color_for("fit") == color_for("fit")
    assert color_for("fit").startswith("#")


def test_trace_records_and_stats(seq_runtime):
    _run_diamond(seq_runtime)
    trace = seq_runtime.trace()
    assert len(trace) == 4
    assert trace.total_task_time >= 0
    assert trace.makespan >= 0
    by_name = trace.by_name()
    assert len(by_name["combine"]) == 3


def test_trace_bytes_estimates(seq_runtime):
    f = produce(1000)
    wait_on(f)
    rec = [r for r in seq_runtime.trace() if r.name == "produce"][0]
    assert rec.out_bytes == 8000


def test_estimate_nbytes():
    assert estimate_nbytes(np.zeros(10)) == 80
    assert estimate_nbytes([np.zeros(10), np.zeros(10)]) == 160
    assert estimate_nbytes({"a": b"abc"}) == 3
    assert estimate_nbytes(object()) == 64
    assert estimate_nbytes((np.zeros(2), 5)) == 16 + 64


def test_trace_json_roundtrip(seq_runtime):
    _run_diamond(seq_runtime)
    trace = seq_runtime.trace()
    text = json.dumps(trace_to_otlp(trace))
    ((_, back),) = otlp_to_traces(json.loads(text))
    assert len(back) == len(trace)
    orig = list(trace)[0]
    copy = back[orig.task_id]
    assert copy.name == orig.name
    assert copy.deps == orig.deps
    # span times are integer nanoseconds
    assert abs(copy.duration - orig.duration) < 1e-6


def test_provenance_record(seq_runtime):
    _run_diamond(seq_runtime)
    trace = seq_runtime.trace()
    assert graph_summary(seq_runtime.graph)["n_tasks"] == 4
    assert summarize_trace(trace)["by_name"]["combine"]["count"] == 3
    document = json.loads(json.dumps(trace_to_otlp(trace)))
    resource = span_attributes(document["resourceSpans"][0]["resource"])
    assert resource["service.name"] == "repro-runtime"
    assert resource["repro.version"] == repro.__version__
    assert resource["process.runtime.version"] == platform.python_version()
    assert resource["repro.numpy.version"] == np.__version__
