"""Structured logging with trace correlation.

A thin layer over the stdlib ``logging`` module (so ``caplog``,
handlers and level filtering keep working) that attaches **correlation
fields** to every record: the ambient
:class:`~repro.runtime.tracectx.TraceContext` (trace_id / span_id),
the emitting pid, and whatever the call site knows (task_id, tenant,
attempt, worker).  Two render modes:

* default — classic single-line text with the fields appended as
  ``key=value`` pairs, readable in terminals and test output;
* JSON lines — one JSON object per record, enabled by
  ``REPRO_LOG_JSON=1`` (or :func:`configure`), for machine ingestion.

Usage::

    from repro.runtime.structlog import get_logger
    log = get_logger("repro.service.queue")
    log.info("task claimed", task_id=7, tenant="acme", attempt=1)

Fields land in ``record.repro_fields`` so downstream handlers (or the
flight recorder) can read them structurally; the message string is
rendered once, lazily, by the formatter.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import threading
import time
from typing import Any, Optional

from repro.runtime import tracectx

__all__ = [
    "StructLogger",
    "get_logger",
    "configure",
    "json_mode_enabled",
    "StructFormatter",
    "format_event",
]

_FIELDS_ATTR = "repro_fields"
_lock = threading.Lock()
_configured = False


def json_mode_enabled(environ: Optional[dict] = None) -> bool:
    env = os.environ if environ is None else environ
    raw = env.get("REPRO_LOG_JSON", "").strip().lower()
    return raw in ("1", "true", "yes", "on")


def format_event(
    level: str, logger: str, message: str, fields: dict[str, Any], *, json_mode: bool
) -> str:
    """Render one structured event — the single code path both the
    formatter and tests go through."""
    if json_mode:
        payload = {
            "ts": round(time.time(), 6),
            "level": level,
            "logger": logger,
            "msg": message,
        }
        payload.update(fields)
        try:
            return json.dumps(payload, default=repr)
        except (TypeError, ValueError):
            return json.dumps(
                {k: repr(v) for k, v in payload.items()}
            )
    if not fields:
        return message
    suffix = " ".join(f"{k}={_scalar(v)}" for k, v in fields.items())
    return f"{message} {suffix}"


def _scalar(value: Any) -> str:
    text = str(value)
    if " " in text or '"' in text:
        return json.dumps(text)
    return text


class StructFormatter(logging.Formatter):
    """Formatter rendering ``repro_fields`` — text or JSON lines."""

    def __init__(self, *, json_mode: bool = False):
        super().__init__()
        self.json_mode = json_mode

    def format(self, record: logging.LogRecord) -> str:
        fields = getattr(record, _FIELDS_ATTR, None) or {}
        message = record.getMessage()
        if record.exc_info and not record.exc_text:
            record.exc_text = self.formatException(record.exc_info)
        rendered = format_event(
            record.levelname,
            record.name,
            message,
            fields,
            json_mode=self.json_mode,
        )
        if record.exc_text and not self.json_mode:
            rendered = f"{rendered}\n{record.exc_text}"
        return rendered


class StructLogger:
    """A named logger whose methods take correlation fields as kwargs.

    Wraps (never subclasses) a stdlib logger: level gating, handler
    fan-out and ``caplog`` capture all behave exactly as stdlib
    logging.  The ambient trace context and the pid are attached
    automatically; explicit kwargs win over ambient values.
    """

    __slots__ = ("_logger",)

    def __init__(self, logger: logging.Logger):
        self._logger = logger

    @property
    def name(self) -> str:
        return self._logger.name

    @property
    def stdlib(self) -> logging.Logger:
        return self._logger

    def isEnabledFor(self, level: int) -> bool:  # noqa: N802 - stdlib shape
        return self._logger.isEnabledFor(level)

    def _emit(
        self, level: int, message: str, exc_info: Any = None, **fields: Any
    ) -> None:
        if not self._logger.isEnabledFor(level):
            return
        ctx = tracectx.current_context()
        merged: dict[str, Any] = {"pid": os.getpid()}
        if ctx is not None:
            merged["trace_id"] = ctx.trace_id
            merged["span_id"] = ctx.span_id
        merged.update({k: v for k, v in fields.items() if v is not None})
        self._logger.log(
            level, message, exc_info=exc_info, extra={_FIELDS_ATTR: merged}
        )

    def debug(self, message: str, **fields: Any) -> None:
        self._emit(logging.DEBUG, message, **fields)

    def info(self, message: str, **fields: Any) -> None:
        self._emit(logging.INFO, message, **fields)

    def warning(self, message: str, **fields: Any) -> None:
        self._emit(logging.WARNING, message, **fields)

    def error(self, message: str, **fields: Any) -> None:
        self._emit(logging.ERROR, message, **fields)

    def exception(self, message: str, **fields: Any) -> None:
        self._emit(logging.ERROR, message, exc_info=sys.exc_info(), **fields)


def get_logger(name: str) -> StructLogger:
    """The :class:`StructLogger` for *name* (stdlib-backed)."""
    return StructLogger(logging.getLogger(name))


def configure(
    *,
    json_mode: Optional[bool] = None,
    level: int = logging.INFO,
    stream: Any = None,
    force: bool = False,
) -> logging.Handler:
    """Attach one structured handler to the ``repro`` logger tree.

    Idempotent per process unless *force*.  *json_mode* defaults to
    the ``REPRO_LOG_JSON`` environment variable.  Returns the handler
    (tests point *stream* at a ``StringIO`` and read it back).
    """
    global _configured
    root = logging.getLogger("repro")
    with _lock:
        if json_mode is None:
            json_mode = json_mode_enabled()
        if force:
            for handler in [
                h for h in root.handlers if getattr(h, "_repro_struct", False)
            ]:
                root.removeHandler(handler)
            _configured = False
        if _configured:
            for handler in root.handlers:
                if getattr(handler, "_repro_struct", False):
                    return handler
        handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
        handler.setFormatter(StructFormatter(json_mode=json_mode))
        handler._repro_struct = True  # type: ignore[attr-defined]
        root.addHandler(handler)
        if root.level == logging.NOTSET or root.level > level:
            root.setLevel(level)
        _configured = True
        return handler
