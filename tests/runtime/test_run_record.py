"""The OTLP document is a run's one record.

A runtime ``Trace`` survives trace -> document -> ``Trace`` field by
field; the summary, the critical path and the cluster simulator answer
the same on the copy; and ``repro trace`` reads the document of a
runtime and of a service, one block per runtime incarnation."""

from __future__ import annotations

import dataclasses
import json
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.cluster import marenostrum4, simulate
from repro.cluster.chrometrace import validate_chrome_json
from repro.runtime import observability as obs
from repro.runtime.otlp import otlp_to_traces, save_otlp, spans_to_otlp, trace_to_otlp
from repro.runtime.tracing import TaskRecord, Trace
from tests.runtime.test_tracing import _EXECUTORS, _random_dag_run

#: fields on the span clock: integer nanoseconds in the document
_TIMES = ("t_start", "t_end", "t_submit", "t_ready", "t_dispatch")


def _read_back(trace):
    document = json.loads(json.dumps(trace_to_otlp(trace, wall_t0=0.0)))
    ((_, back),) = otlp_to_traces(document)
    return back


def _assert_fields_survive(trace, back):
    assert [r.task_id for r in back] == [r.task_id for r in trace]
    for rec in trace:
        copy = back[rec.task_id]
        for field in dataclasses.fields(rec):
            want, got = getattr(rec, field.name), getattr(copy, field.name)
            if field.name in _TIMES and want is not None:
                assert got == pytest.approx(want, abs=1e-6), (rec.task_id, field.name)
            else:
                assert (got, type(got)) == (want, type(want)), (rec.task_id, field.name)


def _assert_readers_agree(trace, back):
    want, got = obs.summarize_trace(trace), obs.summarize_trace(back)
    by_name = want.pop("by_name"), got.pop("by_name")
    assert list(by_name[0]) == list(by_name[1])
    for name, entry in by_name[0].items():
        assert by_name[1][name] == pytest.approx(entry, abs=1e-6), name
    assert got.pop("by_status") == want.pop("by_status")
    assert got == pytest.approx(want, abs=1e-6)
    cp_want, cp_got = obs.critical_path(trace), obs.critical_path(back)
    assert cp_got.task_ids == cp_want.task_ids
    assert cp_got.length == pytest.approx(cp_want.length, abs=1e-6)
    makespan = simulate(trace, marenostrum4(2)).makespan
    assert simulate(back, marenostrum4(2)).makespan == pytest.approx(makespan, abs=1e-6)


def test_a_record_with_every_field_set_survives():
    producer = TaskRecord(task_id=3, name="load", deps=(), t_start=0.5, t_end=0.75)
    rec = TaskRecord(
        task_id=7, name="train", deps=(3,), t_start=1.25, t_end=2.5,
        computing_units=4, gpus=1, in_bytes=800, out_bytes=96, parent_id=2,
        label="fold-1", attempt=2, retry_of=5, status="ignored", error="ValueError('x')",
        pid=4242, t_submit=0.125, t_ready=1.0, t_dispatch=1.125, worker="w-1",
        bytes_moved=4096, bytes_saved=8192, trace_id="ab" * 16, span_id="cd" * 8,
        parent_span_id="ef" * 8,
    )
    assert all(
        getattr(rec, f.name) != f.default for f in dataclasses.fields(rec)
        if f.default is not dataclasses.MISSING
    )
    back = _read_back(Trace([producer, rec]))
    assert dataclasses.asdict(back[7]) == dataclasses.asdict(rec)


@pytest.mark.parametrize("executor", list(_EXECUTORS))
@settings(derandomize=True, deadline=None, max_examples=8)
@given(seed=st.integers(0, 2**32 - 1))
def test_the_document_round_trips_a_runtime_trace(executor, seed):
    """Over seeded random DAGs (retried, restored, IGNOREd, cancelled
    and nested attempts): every field survives, and the summary, the
    critical path and the simulated makespan are the same on the copy."""
    with tempfile.TemporaryDirectory() as ckpt:
        trace = _random_dag_run(seed, ckpt, **_EXECUTORS[executor]).trace
    assert any(r.retry_of is not None for r in trace)
    assert {"restored", "failed", "done"} <= {r.status for r in trace}
    back = _read_back(trace)
    _assert_fields_survive(trace, back)
    _assert_readers_agree(trace, back)


# ----------------------------------------------------------------------
# repro trace reads the document
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def runtime_file(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("runtime-file")
    trace = _random_dag_run(0, tmp / "ckpt", **_EXECUTORS["threads"]).trace
    path = tmp / "run.otlp.json"
    save_otlp(trace_to_otlp(trace), path)
    return path, trace


def test_trace_cli_on_a_runtime_file(runtime_file, capsys, tmp_path):
    path, trace = runtime_file
    assert main(["trace", "summarize", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.count("== repro-runtime") == 1
    assert f"records        : {len(trace)} " in out and "_flaky" in out

    assert main(["trace", "critical-path", str(path), "--top", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"== repro-runtime: {len(trace)} records ==\ncritical path:")

    chrome = tmp_path / "run.chrome.json"
    assert main(["trace", "chrome", str(path), "--output", str(chrome)]) == 0
    events = validate_chrome_json(chrome.read_text())
    assert sum(e["ph"] == "X" for e in events) == sum(r.t_end > r.t_start for r in trace)


def test_trace_cli_on_a_service_dir_prints_one_block_per_incarnation(tmp_path, capsys):
    data = str(tmp_path / "data")
    for a in (1, 2):  # two server incarnations, one task each
        assert main(["submit", "--data-dir", data, "repro.service.demo:add", str(a), "2"]) == 0
        assert main([
            "serve", "--data-dir", data, "--poll-interval", "0.01",
            "--lease-timeout", "3", "--until-idle",
        ]) == 0
    capsys.readouterr()

    assert main(["trace", "summarize", "--service", data]) == 0
    out = capsys.readouterr().out
    assert out.count("== repro-service-runtime [") == 2
    assert out.count("add ") == 2

    assert main(["trace", "critical-path", "--service", data]) == 0
    assert capsys.readouterr().out.count("critical path:") == 2

    chrome = tmp_path / "service.chrome.json"
    assert main(["trace", "chrome", "--service", data, "--output", str(chrome)]) == 0
    names = {e["name"] for e in validate_chrome_json(chrome.read_text())}
    assert {"submit", "deliver", "add"} <= names


@pytest.mark.parametrize(
    "payload",
    [
        [{"task_id": 0, "name": "t", "deps": [], "t_start": 0.0, "t_end": 1.0}],
        "a bare string",
        {"resourceSpans": [1]},
        {"resourceSpans": [{"scopeSpans": [{"spans": [
            {"name": "t", "attributes": [{"key": "repro.task_id", "value": {"intValue": "x"}}]}
        ]}]}]},
    ],
    ids=["record-list", "string", "malformed-group", "malformed-span"],
)
@pytest.mark.parametrize("action", ["summarize", "critical-path", "chrome"])
def test_trace_cli_exits_1_on_a_file_that_is_not_a_document(tmp_path, capsys, payload, action):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(payload))
    assert main(["trace", action, str(path)]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert str(path) in err


def test_trace_cli_exits_1_on_a_document_without_task_spans(tmp_path, capsys):
    path = tmp_path / "service-only.json"
    rows = [{"span_id": "ab" * 8, "trace_id": "cd" * 16, "name": "submit", "t_start": 1.0}]
    save_otlp(spans_to_otlp(rows), path)
    assert main(["trace", "summarize", str(path)]) == 1
    assert capsys.readouterr().err.strip() == f"no task spans in {path}"
