"""Tests of :mod:`repro.runtime.structlog`: ``key=value`` field
rendering, ambient trace correlation, stdlib/caplog compatibility, and
idempotent handler configuration."""

from __future__ import annotations

import io
import logging
import os

from repro.runtime import structlog
from repro.runtime.structlog import (
    StructFormatter,
    configure,
    format_event,
    get_logger,
)
from repro.runtime.tracectx import new_trace, use_context


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def test_format_event_text_appends_fields():
    line = format_event("task claimed", {"task_id": 7, "tenant": "acme"})
    assert line == "task claimed task_id=7 tenant=acme"


def test_format_event_text_quotes_awkward_values():
    line = format_event("m", {"detail": 'two words "quoted"'})
    assert line == 'm detail="two words \\"quoted\\""'


# ----------------------------------------------------------------------
# the logger: correlation fields, caplog compatibility
# ----------------------------------------------------------------------
def test_fields_land_on_the_record_and_pid_is_automatic(caplog):
    with caplog.at_level(logging.INFO, logger="repro.test.structlog"):
        get_logger("repro.test.structlog").info("hello", task_id=9)
    (record,) = caplog.records
    assert record.getMessage() == "hello"
    assert record.repro_fields["task_id"] == 9
    assert record.repro_fields["pid"] == os.getpid()


def test_ambient_trace_context_is_attached(caplog):
    ctx = new_trace()
    with caplog.at_level(logging.INFO, logger="repro.test.structlog"):
        with use_context(ctx):
            get_logger("repro.test.structlog").info("traced")
        get_logger("repro.test.structlog").info("untraced")
    traced, untraced = caplog.records
    assert traced.repro_fields["trace_id"] == ctx.trace_id
    assert traced.repro_fields["span_id"] == ctx.span_id
    assert "trace_id" not in untraced.repro_fields


def test_explicit_fields_win_over_ambient_and_none_is_dropped(caplog):
    ctx = new_trace()
    with caplog.at_level(logging.INFO, logger="repro.test.structlog"):
        with use_context(ctx):
            get_logger("repro.test.structlog").info(
                "override", trace_id="feedface", worker=None
            )
    (record,) = caplog.records
    assert record.repro_fields["trace_id"] == "feedface"
    assert "worker" not in record.repro_fields


def test_level_gating_short_circuits(caplog):
    with caplog.at_level(logging.WARNING, logger="repro.test.structlog"):
        get_logger("repro.test.structlog").debug("invisible", task_id=1)
    assert not caplog.records


def test_exception_carries_exc_info(caplog):
    log = get_logger("repro.test.structlog")
    with caplog.at_level(logging.ERROR, logger="repro.test.structlog"):
        try:
            raise ValueError("boom")
        except ValueError:
            log.exception("it broke", task_id=1)
    (record,) = caplog.records
    assert record.exc_info is not None
    assert record.repro_fields["task_id"] == 1


# ----------------------------------------------------------------------
# formatter + configure
# ----------------------------------------------------------------------
def _make_record(fields):
    record = logging.LogRecord(
        "repro.test", logging.INFO, __file__, 1, "msg", (), None
    )
    record.repro_fields = fields
    return record


def test_struct_formatter_renders_fields_as_text():
    assert StructFormatter().format(_make_record({"task_id": 5})) == "msg task_id=5"
    assert StructFormatter().format(_make_record({})) == "msg"


def test_configure_is_idempotent_and_force_replaces():
    stream = io.StringIO()
    handler = configure(stream=stream, force=True)
    again = configure(stream=io.StringIO())
    assert again is handler  # second call reuses the installed handler
    replacement = configure(stream=io.StringIO(), force=True)
    assert replacement is not handler
    root = logging.getLogger("repro")
    struct_handlers = [
        h for h in root.handlers if getattr(h, "_repro_struct", False)
    ]
    assert struct_handlers == [replacement]
    root.removeHandler(replacement)
    structlog._configured = False


def test_configured_stream_receives_text_lines():
    stream = io.StringIO()
    handler = configure(stream=stream, force=True)
    try:
        get_logger("repro.test.structlog").warning("served", tenant="acme")
        line = stream.getvalue().strip().splitlines()[-1]
        assert line == f"served pid={os.getpid()} tenant=acme"
    finally:
        logging.getLogger("repro").removeHandler(handler)
        structlog._configured = False
