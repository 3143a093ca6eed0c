"""The acceptance chaos tests.

Under a seeded schedule that fails attempts, ``kill -9``s the server
mid-workload, and expires a lease, a restarted service completes the
workload with **zero lost tasks** and **zero duplicate side-effecting
executions** — verified from the signature-deduplicated results table
and the provenance log by the harness in ``chaos.py`` beside this
module (also run by ``check.sh service``).
"""

from __future__ import annotations

import pytest

from tests.service.chaos import (
    run_crash_recovery_scenario,
    run_lease_expiry_scenario,
    run_traced_recovery_scenario,
)


@pytest.mark.slow
def test_kill9_crash_recovery_completes_workload(tmp_path):
    report = run_crash_recovery_scenario(tmp_path, seed=0)
    assert report.ok, "\n" + report.line()
    counters = report.details["counters"]
    assert counters["recoveries"] >= 1  # kill -9 left leases to recover
    assert counters["redeliveries"] >= 1  # the flaky tasks' failed attempts
    assert counters["completions"] == report.n_tasks
    assert "recovered" in report.details["events"]


@pytest.mark.slow
def test_kill9_keeps_one_trace_id_across_incarnations(tmp_path):
    """PR 10 acceptance: a submission's trace id survives ``kill -9``.

    Walks the exported OTLP/JSON document: the client submit span, the
    killed incarnation's interrupted delivery, the recovered
    incarnation's completed delivery, and the embedded runtime's task
    span (with its executing pid) all share one trace id and are
    parented in causal order."""
    from repro.runtime.otlp import iter_spans, span_attributes

    report = run_traced_recovery_scenario(tmp_path, seed=0, lease_timeout=1.0)
    assert report.ok, "\n" + report.line()

    document = report.details["otlp"]
    trace_id = report.details["trace_id"]
    spans = [s for s in iter_spans(document) if s["traceId"] == trace_id]

    submit = [s for s in spans if s["name"] == "submit"]
    deliveries = [s for s in spans if s["name"] == "deliver"]
    interrupted = [s for s in deliveries if span_attributes(s).get("repro.interrupted")]
    completed = [s for s in deliveries if not span_attributes(s).get("repro.interrupted")]
    assert len(submit) == 1
    assert interrupted and completed  # both incarnations in one trace
    assert len({span_attributes(s)["server"] for s in deliveries}) == 2
    # causal parenting: submit -> deliver -> runtime task span (with pid)
    assert all(s["parentSpanId"] == submit[0]["spanId"] for s in deliveries)
    delivery_ids = {s["spanId"] for s in deliveries}
    task_spans = [
        s
        for s in spans
        if s["name"] not in ("submit", "deliver")
        and span_attributes(s).get("repro.pid") is not None
    ]
    assert any(s.get("parentSpanId") in delivery_ids for s in task_spans)


@pytest.mark.slow
def test_lease_expiry_redelivers_and_deduplicates(tmp_path):
    report = run_lease_expiry_scenario(tmp_path, seed=0)
    assert report.ok, "\n" + report.line()
    counters = report.details["counters"]
    assert counters["lease_expirations"] >= 1
    assert counters["dedup_skips"] >= 1
    assert "lease_expired" in report.details["events"]
