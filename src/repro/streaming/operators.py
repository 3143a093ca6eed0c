"""Windowed operators: how unbounded streams become finite work units.

One window shape, :class:`TumblingCountWindow`: every ``n`` records of
a key, no overlap, closed by arrival alone.  End-of-stream flushes every
open partial window, so a bounded feed loses nothing.

Windows are keyed: records carry an optional routing ``key`` (set by
``key_by``) and each key gets independent window state; ``None`` is the
global key.  Emission order is deterministic — a window closes on the
arrival that fills it, and the partials flush in first-seen key order —
which is what lets the differential suite demand bit-identical streamed
vs. batch output.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.streaming.channel import Record


class TumblingCountWindow:
    def __init__(self, n: int):
        if n < 1:
            raise ValueError("tumbling count window needs n >= 1")
        self.n = n

    def make(self) -> "_CountWindower":
        return _CountWindower(self.n)

    def __repr__(self) -> str:  # pragma: no cover
        return f"TumblingCountWindow({self.n})"


class _CountWindower:
    """Per-operator window state.  A closed window is a :class:`Record`
    whose value is the list of its members' values, carrying their key
    and the latest of their ``ingest`` stamps."""

    def __init__(self, n: int):
        self.n = n
        #: key -> [open values, max ingest]; a key keeps its first-seen
        #: place in the dict across the windows it closes.
        self._open: dict[Any, list] = {}

    def add(self, rec: Record) -> Record | None:
        """Feed one record; returns the window its arrival closed."""
        slot = self._open.get(rec.key)
        if slot is None:
            slot = self._open[rec.key] = [[], None]
        values, ingest = slot
        values.append(rec.value)
        if rec.ingest is not None and (ingest is None or rec.ingest > ingest):
            slot[1] = ingest = rec.ingest
        if len(values) < self.n:
            return None
        self._open[rec.key] = [[], None]
        return Record(values, key=rec.key, ingest=ingest)

    def flush(self) -> list[Record]:
        """End-of-stream: close every partial window."""
        out = [
            Record(values, key=key, ingest=ingest)
            for key, (values, ingest) in self._open.items()
            if values
        ]
        self._open.clear()
        return out


def run_windowed(
    spec: TumblingCountWindow,
    records: Iterable[Record],
    fn: Callable[[list], Any] | None = None,
) -> list[Record]:
    """Replay *records* through a fresh windower and return the emitted
    records — the batch-side twin of a streamed window stage, used by
    :func:`~repro.streaming.serving.serve_batch` so both paths share one
    windowing implementation."""
    windower = spec.make()
    closed = [w for w in map(windower.add, records) if w is not None]
    closed += windower.flush()
    if fn is None:
        return closed
    return [w.replace(fn(w.value)) for w in closed]
