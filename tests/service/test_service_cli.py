"""Tests of the ``repro serve`` / ``submit`` / ``queue`` CLI surface
(in-process via ``cli.main``; the cross-process server path is covered
by the chaos suite)."""

from __future__ import annotations

import os
import threading

import pytest

from repro.cli import main

DEMO = "repro.service.demo"


def test_submit_then_serve_until_idle_then_queue_views(tmp_path, capsys):
    data = str(tmp_path / "data")
    assert main(["submit", "--data-dir", data, f"{DEMO}:add", "19", "23"]) == 0
    out = capsys.readouterr().out
    assert "task 1" in out

    assert main([
        "serve", "--data-dir", data, "--workers", "2",
        "--lease-timeout", "3", "--poll-interval", "0.01", "--until-idle",
    ]) == 0
    out = capsys.readouterr().out
    assert "serving" in out and "drained cleanly" in out

    assert main(["submit", "--data-dir", data, f"{DEMO}:add", "19", "23",
                 "--wait", "--timeout", "5"]) == 0
    out = capsys.readouterr().out
    assert "result: 42" in out  # idempotent resubmit found the result

    assert main(["queue", "status", "--data-dir", data]) == 0
    out = capsys.readouterr().out
    assert "done=1" in out and "completions" in out

    assert main(["queue", "list", "--data-dir", data]) == 0
    out = capsys.readouterr().out
    assert "done" in out and "add" in out

    assert main(["queue", "provenance", "--data-dir", data]) == 0
    out = capsys.readouterr().out
    assert "submitted" in out and "completed" in out


def test_submit_json_arguments_and_kwargs(tmp_path, capsys):
    data = str(tmp_path / "data")
    assert main([
        "submit", "--data-dir", data, f"{DEMO}:mul",
        "[1, 2]", "--kwarg", "b=3",
    ]) == 0
    capsys.readouterr()
    done = threading.Thread(
        target=main,
        args=([
            "serve", "--data-dir", data, "--poll-interval", "0.01",
            "--lease-timeout", "3", "--until-idle",
        ],),
    )
    done.start()
    done.join(timeout=30)
    assert not done.is_alive()
    assert main(["submit", "--data-dir", data, f"{DEMO}:mul",
                 "[1, 2]", "--kwarg", "b=3", "--wait", "--timeout", "5"]) == 0
    out = capsys.readouterr().out
    assert "result: [1, 2, 1, 2, 1, 2]" in out  # [1,2] * 3


def test_queue_cancel_and_reprioritize(tmp_path, capsys):
    data = str(tmp_path / "data")
    main(["submit", "--data-dir", data, f"{DEMO}:add", "1", "1"])
    main(["submit", "--data-dir", data, f"{DEMO}:add", "2", "2"])
    capsys.readouterr()
    assert main(["queue", "reprioritize", "2", "--data-dir", data,
                 "--priority", "9"]) == 0
    assert main(["queue", "cancel", "1", "--data-dir", data]) == 0
    assert main(["queue", "cancel", "99", "--data-dir", data]) == 1
    out = capsys.readouterr().out
    assert "priority set" in out and "cancelled" in out and "unknown" in out


def test_queue_tenant_upsert(tmp_path, capsys):
    data = str(tmp_path / "data")
    assert main(["queue", "tenant", "--data-dir", data, "--name", "alpha",
                 "--quota", "2", "--weight", "2.5"]) == 0
    out = capsys.readouterr().out
    assert "tenant alpha" in out
    assert main(["queue", "tenant", "--data-dir", data]) == 2  # no --name


def test_submit_rejects_bad_reference(tmp_path, capsys):
    assert main(["submit", "--data-dir", str(tmp_path / "d"), "not-a-ref"]) == 2
    assert "submit failed" in capsys.readouterr().err


def test_submit_rejects_bad_kwarg(tmp_path, capsys):
    assert main(["submit", "--data-dir", str(tmp_path / "d"),
                 f"{DEMO}:add", "--kwarg", "nonsense"]) == 2
    assert "NAME=JSON" in capsys.readouterr().err


def test_serve_exits_nonzero_when_a_body_kills_the_runtime(tmp_path, capsys):
    """Fail-stop: ``SystemExit`` in a body stops the server, which exits
    1 with the task behind it still queued for the next server."""
    data = str(tmp_path / "data")
    assert main(["submit", "--data-dir", data, "--max-retries", "0",
                 "tests.service.test_server:exit_3"]) == 0
    assert main(["submit", "--data-dir", data, f"{DEMO}:add", "2", "3"]) == 0
    capsys.readouterr()
    assert main([
        "serve", "--data-dir", data, "--workers", "1",
        "--poll-interval", "0.01", "--until-idle",
    ]) == 1
    captured = capsys.readouterr()
    assert "SystemExit(3)" in captured.err
    assert "drained cleanly" not in captured.out
    assert main(["queue", "list", "--data-dir", data]) == 0
    out = capsys.readouterr().out
    assert "failed" in out and "queued" in out


def test_trace_service_exports_otlp(tmp_path, capsys):
    import json

    data = str(tmp_path / "data")
    assert main(["submit", "--data-dir", data, f"{DEMO}:add", "1", "2"]) == 0
    capsys.readouterr()
    assert main([
        "serve", "--data-dir", data, "--poll-interval", "0.01",
        "--lease-timeout", "3", "--until-idle",
    ]) == 0
    capsys.readouterr()

    assert main(["trace", "--service", data]) == 0
    document = json.loads(capsys.readouterr().out)
    from repro.runtime.otlp import iter_spans

    names = {s["name"] for s in iter_spans(document)}
    assert "submit" in names and "deliver" in names and "add" in names

    out_file = tmp_path / "trace.otlp.json"
    assert main(["trace", "--service", data, "--output", str(out_file)]) == 0
    assert "spans" in capsys.readouterr().out
    assert json.loads(out_file.read_text())["resourceSpans"]


def test_trace_service_chrome_merges_incarnations(tmp_path, capsys):
    import json

    data = str(tmp_path / "data")
    assert main(["submit", "--data-dir", data, f"{DEMO}:add", "1", "2"]) == 0
    capsys.readouterr()
    assert main([
        "serve", "--data-dir", data, "--poll-interval", "0.01",
        "--lease-timeout", "3", "--until-idle",
    ]) == 0
    capsys.readouterr()

    out_file = tmp_path / "service.chrome.json"
    assert main([
        "trace", "chrome", "--service", data, "--output", str(out_file),
    ]) == 0
    assert "merged chrome trace" in capsys.readouterr().out
    chrome = json.loads(out_file.read_text())
    events = chrome["traceEvents"]
    names = {e["name"] for e in events if e["ph"] in ("X", "i")}
    assert "submit" in names and "deliver" in names and "add" in names
    # every resource (client log, server, worker runtime) got a row
    rows = [e for e in events if e["ph"] == "M" and e["name"] == "process_name"]
    assert len(rows) >= 2
    assert all(e["ts"] >= 0 for e in events if e["ph"] in ("X", "i"))
    # the embedded runtime's row names its server and the server's pid
    (add,) = [e for e in events if e["ph"] in ("X", "i") and e["name"] == "add"]
    (label,) = [e["args"]["name"] for e in rows if e["pid"] == add["pid"]]
    assert label.startswith(f"repro-service-runtime [{os.getpid():x}-")
    assert label.endswith(f"] pid {os.getpid()}")



@pytest.mark.parametrize(
    "argv", [["status"], ["list"], ["provenance"], ["cancel", "1"],
             ["reprioritize", "1", "--priority", "3"]],
)
def test_queue_views_of_a_missing_queue_exit_1_and_create_nothing(tmp_path, capsys, argv):
    data = tmp_path / "mistyped"
    assert main(["queue", *argv, "--data-dir", str(data)]) == 1
    assert capsys.readouterr().err.strip() == f"no queue at {data}"
    assert not data.exists()


def test_queue_tenant_creates_the_queue(tmp_path, capsys):
    data = tmp_path / "fresh"
    assert main(["queue", "tenant", "--data-dir", str(data), "--name", "acme"]) == 0
    assert (data / "queue.db").exists()
    assert main(["queue", "status", "--data-dir", str(data)]) == 0
    assert "tenant acme" in capsys.readouterr().out


def test_trace_service_empty_dir_fails(tmp_path, capsys):
    assert main(["trace", "--service", str(tmp_path)]) == 1
    assert "no spans" in capsys.readouterr().err


def test_trace_without_file_or_service_is_an_error(capsys):
    assert main(["trace", "summarize"]) == 2
    assert "wants a FILE" in capsys.readouterr().err


def test_logs_renders_service_dir(tmp_path, capsys):
    data = str(tmp_path / "data")
    assert main(["submit", "--data-dir", data, f"{DEMO}:add", "1", "2"]) == 0
    capsys.readouterr()
    assert main(["logs", data]) == 0
    out = capsys.readouterr().out
    assert "span log" in out and "submit" in out and "trace=" in out

    assert main(["logs", data, "--limit", "1"]) == 0
    assert "status=ok" in capsys.readouterr().out  # the submit span's end row
    assert main(["logs", str(tmp_path)]) == 1
    assert "no queue" in capsys.readouterr().err
    assert not (tmp_path / "queue.db").exists()


def test_logs_renders_flightrec_dump(tmp_path, capsys):
    from repro.runtime.flightrec import FlightRecorder

    row = {"kind": "submitted", "t": 0.5, "task_id": 1, "root_id": 1, "name": "add"}
    rec = FlightRecorder(lambda: [row], name="cli", dump_dir=tmp_path)
    path = rec.dump(reason="cli test")
    rec.close()
    assert main(["logs", path]) == 0
    out = capsys.readouterr().out
    assert "cli test" in out and "submitted" in out

    assert main(["logs", str(tmp_path / "missing.json")]) == 1
    assert "no such file" in capsys.readouterr().err
