"""Tests of :mod:`repro.runtime.flightrec`: the bounded tail of the
lifecycle view, dump/load round-trips, the live-recorder registry, and
the engine and watchdog integrations that dump the black box on the
way down."""

from __future__ import annotations

import collections
import json
import threading

import pytest

from repro.runtime import Runtime, task, wait_on
from repro.runtime.config import RuntimeConfig
from repro.runtime.exceptions import WorkflowKilledError
from repro.runtime.flightrec import FlightRecorder, dump_all, load_dump
from repro.runtime.observability import TERMINAL_KINDS, lifecycle_events
from tests.support.oracles import run_under_watchdog


def _ev(kind="done", task_id=0):
    return {"kind": kind, "t": 0.0, "task_id": task_id, "root_id": task_id, "name": "t"}


def _no_events():
    return []


# ----------------------------------------------------------------------
# the window
# ----------------------------------------------------------------------
def test_capacity_bounds_memory_and_counts_drops():
    with Runtime(executor="sequential") as rt:
        wait_on([_fine(i) for i in range(5)])
        rows = lifecycle_events(rt._attempts())
        rec = FlightRecorder(lambda: lifecycle_events(rt._attempts()), capacity=3)
        try:
            snap = rec.snapshot()
        finally:
            rec.close()
    # five attempts, four rows each; the dump is the last three rows
    assert len(rows) == 20
    assert snap["events"] == rows[-3:]
    assert [(e["task_id"], e["kind"]) for e in snap["events"]] == [
        (4, "dispatched"), (4, "running"), (4, "done")
    ]
    assert snap["n_events"] == 3 and snap["n_dropped"] == 17
    assert snap["capacity"] == 3


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        FlightRecorder(_no_events, capacity=0)


# ----------------------------------------------------------------------
# dump / load
# ----------------------------------------------------------------------
def test_dump_roundtrip(tmp_path):
    rows = [_ev("submitted"), _ev("done")]
    rec = FlightRecorder(lambda: rows, capacity=8, name="rt", dump_dir=tmp_path / "dumps")
    try:
        path = rec.dump(reason="unit test")
        payload = load_dump(path)
        assert payload["format"] == "repro-flightrec-v1"
        assert payload["reason"] == "unit test"
        assert payload["name"] == "rt"
        assert payload["n_events"] == 2 and payload["n_dropped"] == 0
        assert [e["kind"] for e in payload["events"]] == ["submitted", "done"]
    finally:
        rec.close()


def test_two_dumps_in_one_second_do_not_overwrite(tmp_path):
    rec = FlightRecorder(_no_events, name="rt", dump_dir=tmp_path)
    try:
        first = rec.dump(reason="abort: boom")
        second = rec.dump(reason="kill: boom")
    finally:
        rec.close()
    assert first != second
    assert load_dump(first)["reason"] == "abort: boom"
    assert load_dump(second)["reason"] == "kill: boom"
    assert sorted(map(str, tmp_path.glob("flightrec-*.json"))) == sorted([first, second])


def test_load_dump_rejects_foreign_json(tmp_path):
    path = tmp_path / "not-a-dump.json"
    path.write_text(json.dumps({"hello": "world"}))
    with pytest.raises(ValueError):
        load_dump(path)


@pytest.mark.parametrize("payload", [[{"task_id": 0}], "a bare string"])
def test_logs_of_a_json_that_is_not_an_object_exits_1(tmp_path, capsys, payload):
    from repro.cli import main

    path = tmp_path / "other.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="not a flight-recorder dump"):
        load_dump(path)
    assert main(["logs", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read {path}") and "not a flight-recorder dump" in err


def test_stats_captured_and_errors_contained(tmp_path):
    good = FlightRecorder(
        _no_events, name="good", dump_dir=tmp_path, stats=lambda: {"by_state": {"done": 1}}
    )
    bad = FlightRecorder(
        _no_events,
        name="bad",
        dump_dir=tmp_path,
        stats=lambda: (_ for _ in ()).throw(RuntimeError("no stats")),
    )
    try:
        payload = load_dump(good.dump())
        assert payload["stats"] == {"by_state": {"done": 1}}
        assert "stats_error" not in payload
        payload = load_dump(bad.dump())
        assert "stats" not in payload
        assert "no stats" in payload["stats_error"]
    finally:
        good.close()
        bad.close()


def test_dump_all_covers_live_recorders_and_skips_closed(tmp_path):
    live = FlightRecorder(_no_events, name="live", dump_dir=tmp_path / "a")
    closed = FlightRecorder(_no_events, name="closed", dump_dir=tmp_path / "b")
    closed.close()
    try:
        written = dump_all("sweep", directory=tmp_path / "out")
        names = {load_dump(p)["name"] for p in written}
        assert "live" in names
        assert "closed" not in names
        assert all(str(tmp_path / "out") in p for p in written)
    finally:
        live.close()


def test_dump_all_keeps_one_black_box_per_same_named_runtime(tmp_path):
    cfg = RuntimeConfig(executor="sequential", flightrec_dir=str(tmp_path / "own"))
    with Runtime(config=cfg) as a, Runtime(config=cfg) as b:
        assert a.name == b.name == "repro-runtime"
        wait_on(_fine(1))  # lands on b, the innermost
        written = [
            p for p in dump_all("sweep", directory=tmp_path / "out")
            if load_dump(p)["name"] == "repro-runtime"
        ]
    assert len(written) == len(set(written)) == 2
    assert sorted(load_dump(p)["n_events"] for p in written) == [0, 4]


# ----------------------------------------------------------------------
# engine integration: automatic dump on kill
# ----------------------------------------------------------------------
@task(returns=1)
def _fine(x):
    return x


@task(returns=1)
def _killer():
    raise KeyboardInterrupt()


def test_runtime_dumps_flight_recorder_on_kill(tmp_path, capsys):
    from repro.cli import main

    dump_dir = tmp_path / "flightrec"
    cfg = RuntimeConfig(executor="threads", flightrec_dir=str(dump_dir))
    with Runtime(config=cfg) as rt:
        assert rt.flight_recorder is not None
        wait_on([_fine(1), _flaky(2)])
        with pytest.raises((WorkflowKilledError, KeyboardInterrupt)):
            wait_on(_killer())
    dumps = list(dump_dir.glob("flightrec-*.json"))
    assert dumps, "kill path wrote no flight-recorder dump"
    payload = load_dump(dumps[0])
    assert payload["reason"].startswith("kill:")
    assert payload["n_events"] >= 1
    kinds = {e["kind"] for e in payload["events"]}
    assert "submitted" in kinds
    # the engine records its stats(): by state, they are the dump's
    # terminal rows (the killed attempt never retired)
    terminal = collections.Counter(
        e["state"] for e in payload["events"] if e["kind"] in TERMINAL_KINDS
    )
    assert dict(terminal) == {"done": 2, "failed": 1}
    by_state = payload["stats"]["by_state"]
    assert {s: n for s, n in by_state.items() if s in TERMINAL_KINDS} == dict(terminal)
    assert payload["stats"]["retries"] == 1
    capsys.readouterr()
    assert main(["logs", str(dumps[0])]) == 0
    assert "by state : done=2, failed=1, running=1" in capsys.readouterr().out


def test_runtime_without_flightrec_dir_has_no_recorder():
    with Runtime(executor="threads") as rt:
        assert rt.flight_recorder is None
        assert wait_on(_fine(2)) == 2


@task(returns=1, max_retries=1)
def _flaky(x):
    from repro.runtime import current_attempt

    if current_attempt() == 0:
        raise ValueError("first attempt fails")
    return x


@task(returns=1)
def _boom():
    raise ValueError("boom")


def _table(flightrec_dir):
    cfg = RuntimeConfig(executor="threads", max_workers=2, flightrec_dir=flightrec_dir)
    with Runtime(config=cfg) as rt:
        futs = [_fine(1), _flaky(2), _fine(_boom())]
        rt.barrier()
        assert [f.done for f in futs] == [True] * 3
        return collections.Counter(
            (i.name, i.attempt, i.state, i.status, i.t_end is not None)
            for i in rt._attempts()
        )


def test_task_table_does_not_depend_on_the_recorder(tmp_path):
    plain = _table(None)
    assert _table(str(tmp_path)) == plain
    # the cancelled attempt is stamped with nobody reading
    assert plain["_fine", 0, "cancelled", None, True] == 1
    assert all(key[-1] for key in plain)


def test_dump_does_not_wait_on_a_wedged_runtime(tmp_path, capsys):
    from repro.cli import main

    cfg = RuntimeConfig(executor="threads", flightrec_dir=str(tmp_path))
    with Runtime(config=cfg) as rt:
        wait_on(_fine(1))
        rt.barrier()
        held, release = threading.Event(), threading.Event()

        def wedge():
            with rt._state_lock, rt._cond:
                held.set()
                release.wait(30)

        holder = threading.Thread(target=wedge, daemon=True)
        holder.start()
        assert held.wait(5)
        paths: list[str] = []
        dumper = threading.Thread(
            target=lambda: paths.append(rt.flight_recorder.dump(reason="wedged")), daemon=True
        )
        try:
            dumper.start()
            dumper.join(1.0)
            assert not dumper.is_alive(), "the dump waited on a runtime lock"
        finally:
            release.set()
            holder.join(5)
    payload = load_dump(paths[0])
    assert [e["kind"] for e in payload["events"]][-1] == "done"
    # stats() takes the held locks: the dump goes without it, and says so
    assert "stats" not in payload and "no stats within" in payload["stats_error"]
    capsys.readouterr()
    assert main(["logs", paths[0]]) == 0
    assert "by state : unread (no stats within" in capsys.readouterr().out


# ----------------------------------------------------------------------
# watchdog integration
# ----------------------------------------------------------------------
def test_watchdog_trip_dumps_live_recorders(tmp_path):
    rec = FlightRecorder(lambda: [_ev("running")], name="hangwatch", dump_dir=tmp_path)
    release = threading.Event()
    try:
        outcome = run_under_watchdog(
            lambda: release.wait(30), timeout=0.2, label="unit-hang"
        )
        assert not outcome["ok"]
        assert any("HANG" in p for p in outcome["problems"])
        assert outcome["flightrec_dumps"]
        payload = load_dump(outcome["flightrec_dumps"][0])
        assert payload["reason"] == "watchdog: unit-hang"
    finally:
        release.set()
        rec.close()
