"""In-memory span recorder for the traced benchmark pass.

The benchmark measures every layer from outside: it wraps the calls the
driver makes *into* a layer (``Runtime.submit``/``wait_on``/``put``/
``get``, the AF phase functions, ``serve_stream`` ...) and records one
``(name, start, end, parent, thread)`` span per call.  Spans stay in
memory and are written once, when the workload subprocess ends.

End-to-end runs keep the recorder off: ``span()`` then returns a shared
no-op context and ``patch()`` installs nothing, so the timed section
runs the program's own code paths untouched.  The cost of recording is
itself a reported metric (``bench.recorder_overhead_frac``).
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from typing import Any, Callable, Iterator

_clock = time.perf_counter


class _Null:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL = _Null()


class _Span:
    __slots__ = ("rec", "name", "sid", "parent", "start")

    def __init__(self, rec: "Recorder", name: str):
        self.rec = rec
        self.name = name

    def __enter__(self):
        rec = self.rec
        stack = rec._stack()
        self.parent = stack[-1] if stack else None
        self.sid = next(rec._ids)
        stack.append(self.sid)
        self.start = _clock()
        return self.sid

    def __exit__(self, *exc):
        end = _clock()
        rec = self.rec
        rec._stack().pop()
        # list.append is atomic under the GIL: no lock on the hot path
        rec.spans.append(
            (self.sid, self.name, self.start, end, self.parent,
             threading.get_ident(), rec.rep)
        )
        return False


class Recorder:
    """Collects spans while ``enabled``; a cheap no-op otherwise."""

    def __init__(self) -> None:
        self.enabled = False
        #: label stamped on every span (which repetition recorded it)
        self.rep = ""
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    @contextlib.contextmanager
    def recording(self, rep: str) -> Iterator[None]:
        """Enable the recorder for one labelled stretch of work."""
        was, old = self.enabled, self.rep
        self.enabled, self.rep = True, rep
        try:
            yield
        finally:
            self.enabled, self.rep = was, old

    def wrap(self, fn: Callable, name: str) -> Callable:
        def timed(*args: Any, **kwargs: Any):
            with self.span(name):
                return fn(*args, **kwargs)

        return timed

    @contextlib.contextmanager
    def patch(self, owner: Any, spans: dict[str, str]) -> Iterator[None]:
        """Route ``owner.<attr>`` through a span for each ``attr: span
        name`` while the block runs.  Installs nothing when the
        recorder is off.  *owner* may be a module, a class or an
        instance (an instance attribute shadowing the method)."""
        if not self.enabled:
            yield
            return
        missing = object()
        saved = {}
        for attr, name in spans.items():
            saved[attr] = vars(owner).get(attr, missing)
            setattr(owner, attr, self.wrap(getattr(owner, attr), name))
        try:
            yield
        finally:
            for attr, original in saved.items():
                if original is missing:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------
    def total(self, name: str, rep: str, thread: int | None = None) -> float:
        """Summed duration of the outermost *name* spans of one
        repetition (on one thread, when given).  A *name* span nested
        in another — ``wait_on`` helping by running a task that waits
        itself — is already inside its ancestor's time."""
        by_id = {s[0]: s for s in self.spans}
        mine = {
            s[0] for s in self.spans
            if s[1] == name and s[6] == rep and (thread is None or s[5] == thread)
        }

        def nested(sid: int) -> bool:
            parent = by_id[sid][4]
            while parent is not None:
                if parent in mine:
                    return True
                # a span still open has not been recorded yet
                parent = by_id[parent][4] if parent in by_id else None
            return False

        return sum(by_id[sid][3] - by_id[sid][2] for sid in mine if not nested(sid))

    def breakdown(self, root: int) -> tuple[float, list[tuple[str, int, float, float]], float]:
        """Self-time table of everything under span *root* on the
        root's own thread.

        Returns ``(root duration, rows, residue)`` where each row is
        ``(name, calls, total seconds, self seconds)`` and residue is
        the root's own self time — wall-clock no child span covers.
        Spans on one thread nest, so self time is the span minus its
        direct children and the rows' self times plus the residue sum
        to the root duration exactly."""
        by_id = {s[0]: s for s in self.spans}
        root_span = by_id[root]
        thread = root_span[5]
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s[4] is not None and s[5] == thread:
                child_time[s[4]] = child_time.get(s[4], 0.0) + (s[3] - s[2])

        def under_root(s: tuple) -> bool:
            parent = s[4]
            while parent is not None:
                if parent == root:
                    return True
                parent = by_id[parent][4] if parent in by_id else None
            return False

        rows: dict[str, list] = {}
        for s in self.spans:
            if s[5] != thread or not under_root(s):
                continue
            dur = s[3] - s[2]
            row = rows.setdefault(s[1], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - child_time.get(s[0], 0.0)
        duration = root_span[3] - root_span[2]
        residue = duration - child_time.get(root, 0.0)
        table = sorted(
            ((n, c, t, st) for n, (c, t, st) in rows.items()), key=lambda r: -r[3]
        )
        return duration, table, residue

    def dump(self, path, workload: str, tasks: list[dict]) -> None:
        """Write every span, plus the runtime's own task stamps of the
        traced repetition, as one JSON document."""
        doc = {
            "workload": workload,
            "clock": "time.perf_counter",
            "spans": [
                {
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "thread": thread,
                    "workload": workload, "rep": rep,
                }
                for sid, name, start, end, parent, thread, rep in self.spans
            ],
            "tasks": tasks,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
