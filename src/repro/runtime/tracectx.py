"""Distributed trace contexts (W3C-traceparent style).

A :class:`TraceContext` is the ``(trace_id, span_id, parent_id)``
triple that follows one logical request across every causal boundary
the system has grown: thread → thread inside one
:class:`~repro.runtime.engine.Runtime`, client → durable-queue row →
lease → embedded runtime in :mod:`repro.service`, and stream source →
stage → micro-batched ``submit_many`` in :mod:`repro.streaming`.  A
body run in a pool worker sees no context: its span is recorded on the
coordinator.

The design constraints, in order:

1. **The submit path stores integers; readers format.**  A context is
   minted on every traced ``Runtime.submit`` (its cost is read off
   ``obs.collect_trace_cost_frac`` and ``ops_per_s`` on ``task_flood``
   in ``bench/``) and its ids are read once, after the run, if at all.
   Ids are one random base per process plus an ``itertools.count()`` —
   ``next()`` is one GIL-atomic C call — kept as integers: :func:`child_of`
   writes them into the slots of a bare instance, and only a context
   built from text (``TraceContext(hex, ...)``, :meth:`from_header`)
   parses.  The 32/16-hex text is made by whoever reads ``trace_id`` /
   ``span_id`` / ``parent_id`` / ``to_header()``: a record being
   shaped, the service row.
2. **Propagation is ambient.**  Task bodies and service workers don't
   pass contexts by hand; the current context is the ``trace_ctx`` of
   whatever the thread is bound to (:mod:`repro.runtime.active`), and
   everything that submits work reads it there.  A running body is
   bound to its own attempt, so nested submissions become children of
   its span; ``Runtime.bind_current_thread(ctx)`` gives an adopted
   thread (a stream chain, a service delivery) the context its
   submissions parent under.
3. **The wire format is text.**  ``to_header()`` emits the W3C
   ``traceparent`` shape (``00-{trace}-{span}-01``) so a context can
   ride a sqlite column unchanged, and ``from_header()`` round-trips
   it.
"""

from __future__ import annotations

import itertools
import os
import re
from typing import Optional

from repro.runtime.active import _tls

__all__ = [
    "TraceContext",
    "new_trace",
    "child_of",
    "current_context",
]

_HEADER_VERSION = "00"
_FLAGS_SAMPLED = "01"
# The ids exactly as W3C spells them, all-zero excluded: ``int(x, 16)`` also
# takes "0x", "+", padding and upper case, which would come back as another header.
_HEADER_RE = re.compile(r"[^-]*-(?!0{32})([0-9a-f]{32})-(?!0{16})([0-9a-f]{16})-[^-]*")

# One random base per process; ids are base + counter.  ``next()`` on
# itertools.count is GIL-atomic, so minting needs no lock, and neither
# mint pays a syscall (``os.urandom`` runs once at import).  The bases
# leave the top bit clear, so base + counter stays inside 64 / 128 bits
# without a mask.
_span_base = int.from_bytes(os.urandom(8), "little") >> 1
_span_counter = itertools.count(1)
_trace_base = int.from_bytes(os.urandom(16), "little") >> 1
_trace_counter = itertools.count(1)


def _hex(value: int, width: int) -> str:
    """The one place an id becomes text: zero-padded lower-case hex."""
    return f"{value:0{width}x}"


class TraceContext:
    """One node of a distributed trace: this span and its parentage.

    ``trace_id`` is 32 lowercase hex chars (128 bits), shared by every
    span of one logical request.  ``span_id`` is 16 hex chars (64
    bits), unique to this span.  ``parent_id`` is the span id of the
    causal parent, or ``None`` for a root span.  Stored as integers,
    formatted when read; the constructor takes all three in either form.

    Treat instances as immutable — they are shared across threads and
    stamped onto records.
    """

    __slots__ = ("_trace", "_span", "_parent")

    def __init__(self, trace_id, span_id, parent_id=None):
        if type(trace_id) is not int:  # hex text; minting passes integers
            trace_id, span_id = int(trace_id, 16), int(span_id, 16)
            parent_id = None if parent_id is None else int(parent_id, 16)
        self._trace, self._span, self._parent = trace_id, span_id, parent_id

    @property
    def trace_id(self) -> str:
        return _hex(self._trace, 32)

    @property
    def span_id(self) -> str:
        return _hex(self._span, 16)

    @property
    def parent_id(self) -> Optional[str]:
        return None if self._parent is None else _hex(self._parent, 16)

    def __reduce__(self):  # pickling — and the value ``==`` and ``hash`` go by
        return (TraceContext, (self._trace, self._span, self._parent))

    def __eq__(self, other):
        return type(other) is TraceContext and self.__reduce__() == other.__reduce__()

    def __hash__(self) -> int:
        return hash(self.__reduce__())

    def __repr__(self) -> str:
        return f"TraceContext({self.trace_id!r}, {self.span_id!r}, {self.parent_id!r})"

    def child(self) -> "TraceContext":
        """A fresh child span in the same trace."""
        return child_of(self)

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
        match = _HEADER_RE.fullmatch(header.strip())
        if match is None:
            raise ValueError(f"malformed traceparent header: {header!r}")
        return cls(*match.groups())


def new_trace() -> TraceContext:
    """Mint a root context: fresh trace id, fresh span, no parent."""
    return child_of(None)


def child_of(parent: Optional[TraceContext]) -> TraceContext:
    """A child of *parent*, or a new root when *parent* is None.  The
    one minting path: it fills the integer slots of a bare instance."""
    ctx = object.__new__(TraceContext)
    if parent is None:
        ctx._trace, ctx._parent = _trace_base + next(_trace_counter), None
    else:
        ctx._trace, ctx._parent = parent._trace, parent._span
    ctx._span = _span_base + next(_span_counter)
    return ctx


def current_context() -> Optional[TraceContext]:
    """The trace context of the attempt bound to the calling thread
    (None outside any, or when it carries none)."""
    bound = _tls.bound
    return None if bound is None else bound.trace_ctx
