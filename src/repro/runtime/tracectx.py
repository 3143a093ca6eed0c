"""Distributed trace contexts (W3C-traceparent style).

A :class:`TraceContext` is the ``(trace_id, span_id, parent_id)``
triple that follows one logical request across every causal boundary
the system has grown: thread → thread inside one
:class:`~repro.runtime.engine.Runtime`, coordinator → worker process
over the pickle pipe, client → durable-queue row → lease → embedded
runtime in :mod:`repro.service`, and stream source → stage → micro-
batched ``submit_many`` in :mod:`repro.streaming`.

The design constraints, in order:

1. **Minting must be almost free.**  It sits on the ``Runtime.submit``
   path (``engine.submit_us``; the layer's whole cost is
   ``obs.collect_trace_cost_frac`` in ``bench/``).  Span ids therefore
   come from one random 64-bit base plus a process-wide
   ``itertools.count()`` — ``next()`` on a count is a single GIL-atomic
   C call, orders of magnitude cheaper than ``os.urandom`` per span,
   while staying unique within a process and colliding across
   processes only with ~2⁻⁶⁴ probability (the base is random per
   process).
2. **Propagation is ambient.**  Task bodies and service workers don't
   pass contexts by hand; the current context lives in a
   ``threading.local`` and everything that submits work reads it.
   :func:`use_context` installs one for a scope, the engine installs
   the executing task's context around its body, so nested submissions
   become children automatically.
3. **The wire format is text.**  ``to_header()`` emits the W3C
   ``traceparent`` shape (``00-{trace}-{span}-01``) so a context can
   ride a sqlite column, a pickle frame, an environment variable or a
   JSON log line unchanged, and ``from_header()`` round-trips it.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import struct
import threading
from typing import Iterator, Optional

__all__ = [
    "TraceContext",
    "new_trace",
    "child_of",
    "current_context",
    "set_context",
    "use_context",
]

_HEADER_VERSION = "00"
_FLAGS_SAMPLED = "01"

# One random base per process; ids are base + counter.  ``next()`` on
# itertools.count is GIL-atomic, so minting needs no lock, and neither
# mint pays a syscall (``os.urandom`` runs once at import).
_span_base = struct.unpack("<Q", os.urandom(8))[0]
_span_counter = itertools.count(1)
_trace_base = int.from_bytes(os.urandom(16), "little")
_trace_counter = itertools.count(1)


def _mint_span_id() -> str:
    return format((_span_base + next(_span_counter)) & 0xFFFFFFFFFFFFFFFF, "016x")


def _mint_trace_id() -> str:
    mask = (1 << 128) - 1
    return format((_trace_base + next(_trace_counter)) & mask, "032x")


@dataclasses.dataclass(slots=True)
class TraceContext:
    """One node of a distributed trace: this span and its parentage.

    ``trace_id`` is 32 lowercase hex chars (128 bits), shared by every
    span of one logical request.  ``span_id`` is 16 hex chars (64
    bits), unique to this span.  ``parent_id`` is the span id of the
    causal parent, or ``None`` for a root span.

    Treat instances as immutable — they are shared across threads and
    stamped onto records.  (Not ``frozen=True``: frozen dataclasses
    construct through ``object.__setattr__``, ~2x slower, and a context
    is minted on every traced ``submit``, which is held to a ≤ 10 %
    overhead bound.)
    """

    trace_id: str
    span_id: str
    parent_id: Optional[str] = None

    def child(self) -> "TraceContext":
        """A fresh child span in the same trace."""
        return TraceContext(
            trace_id=self.trace_id, span_id=_mint_span_id(), parent_id=self.span_id
        )

    def to_header(self) -> str:
        """W3C-``traceparent``-shaped text form.

        The parent id doesn't travel in a traceparent header (the
        receiver's parent *is* the sender's span), so ``from_header``
        restores it as ``None`` — mint a :meth:`child` at the receiving
        side to continue the trace.
        """
        return f"{_HEADER_VERSION}-{self.trace_id}-{self.span_id}-{_FLAGS_SAMPLED}"

    @classmethod
    def from_header(cls, header: str) -> "TraceContext":
        parts = header.strip().split("-")
        if len(parts) != 4:
            raise ValueError(f"malformed traceparent header: {header!r}")
        _version, trace_id, span_id, _flags = parts
        if len(trace_id) != 32 or len(span_id) != 16:
            raise ValueError(f"malformed traceparent header: {header!r}")
        int(trace_id, 16)  # raises ValueError on non-hex
        int(span_id, 16)
        return cls(trace_id=trace_id, span_id=span_id)

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
        }


def new_trace() -> TraceContext:
    """Mint a root context: fresh trace id, fresh span, no parent."""
    return TraceContext(trace_id=_mint_trace_id(), span_id=_mint_span_id())


def child_of(parent: Optional[TraceContext]) -> TraceContext:
    """A child of *parent*, or a new root when *parent* is None."""
    if parent is None:
        return new_trace()
    return parent.child()


_tls = threading.local()


def current_context() -> Optional[TraceContext]:
    """The ambient context of the calling thread (None outside any)."""
    return getattr(_tls, "ctx", None)


def set_context(ctx: Optional[TraceContext]) -> Optional[TraceContext]:
    """Install *ctx* as the calling thread's ambient context and
    return the previous one (restore it when the scope ends)."""
    prev = getattr(_tls, "ctx", None)
    _tls.ctx = ctx
    return prev


class use_context:
    """``with use_context(ctx): ...`` — ambient context for a scope.

    A tiny hand-rolled context manager (not ``@contextmanager``) so
    entering/exiting costs two attribute writes, usable on hot paths.
    """

    __slots__ = ("_ctx", "_prev")

    def __init__(self, ctx: Optional[TraceContext]):
        self._ctx = ctx

    def __enter__(self) -> Optional[TraceContext]:
        self._prev = set_context(self._ctx)
        return self._ctx

    def __exit__(self, exc_type, exc, tb) -> None:
        set_context(self._prev)


def iter_lineage(ctx: TraceContext) -> Iterator[str]:
    """The span ids from *ctx* upward that are knowable locally (this
    span, then its parent id if recorded)."""
    yield ctx.span_id
    if ctx.parent_id is not None:
        yield ctx.parent_id
