"""Bounded streams: the data plane of :mod:`repro.streaming`.

A :class:`Stream` is a bounded multi-producer/multi-consumer channel
with credit-based backpressure: a producer holds a credit for every
free slot, ``capacity - depth``, and :meth:`put` blocks while there is
none.  Credits are derived from the queue, never counted on their own,
so no path can leak one.

A stream carries :class:`Record` elements: one data value, optionally
with a routing ``key`` (set by ``key_by``) and the wall-clock
``ingest`` instant the source stamped for end-to-end latency
measurement.  End-of-stream is not an element at all: :meth:`close`
flips a flag, readers drain whatever is queued and then observe
:data:`EOS`, so no data is ever cut off by a graceful close.

Error propagation runs the other way: :meth:`poison` drops everything
queued (which frees every credit), and makes every current and future
put/get raise the poisoning error — the mechanism stage failures and
aborts use to unwind a whole pipeline without a leaked slot.

A stream bound to a :class:`~repro.runtime.engine.Runtime` registers a
wakeup with the engine's interrupt registry, so a thread parked on a
full (or empty) stream still observes runtime kill/abort/shutdown
promptly and raises instead of sleeping forever.
"""

from __future__ import annotations

import collections
import threading
from typing import Any, Iterator


class StreamClosed(Exception):
    """``put()`` on a stream that has been closed."""


class _EndOfStream:
    """Singleton returned by :meth:`Stream.get` once a closed stream
    has drained.  Never travels through the queue."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "EOS"


EOS = _EndOfStream()


class Record:
    """One data element in flight.

    ``key`` is the routing key assigned by ``key_by`` (None = global);
    ``ingest`` is the wall-clock (monotonic) instant the source emitted
    it, carried through every operator so the sink can measure true
    end-to-end latency.
    """

    __slots__ = ("value", "key", "ingest")

    def __init__(self, value: Any, key: Any = None, ingest: float | None = None):
        self.value = value
        self.key = key
        self.ingest = ingest

    def replace(self, value: Any) -> "Record":
        """A new record carrying *value* with this record's metadata."""
        return Record(value, self.key, self.ingest)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Record({self.value!r}, key={self.key!r})"


class Stream:
    """A bounded element channel with credit-based backpressure."""

    def __init__(
        self,
        capacity: int = 64,
        *,
        name: str = "stream",
        runtime: Any = None,
    ):
        if capacity < 1:
            raise ValueError("stream capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self._queue: collections.deque = collections.deque()
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        self._error: BaseException | None = None
        self._runtime = runtime
        # -- accounting (guarded by _lock) -----------------------------
        self._puts = 0
        self._gets = 0
        self._dropped = 0
        self._high_water = 0
        self._put_waits = 0
        self._get_waits = 0
        if runtime is not None:
            runtime.add_interrupt(self.notify_interrupt)

    # -- runtime integration -------------------------------------------
    def notify_interrupt(self) -> None:
        """Wake every parked producer/consumer so it re-checks the
        runtime's interruption state (registered with
        ``Runtime.add_interrupt``)."""
        with self._lock:
            self._not_full.notify_all()
            self._not_empty.notify_all()

    def _interruption(self) -> BaseException | None:
        rt = self._runtime
        return rt.interruption() if rt is not None else None

    def _unregister(self) -> None:
        rt = self._runtime
        if rt is not None:
            rt.remove_interrupt(self.notify_interrupt)

    # -- producing ------------------------------------------------------
    def put(self, value: Any) -> None:
        """Enqueue one value (wrapped in a :class:`Record`), blocking
        while no credit is available."""
        self.put_item(Record(value))

    def put_item(self, item: Record) -> None:
        """Enqueue a prepared :class:`Record`."""
        with self._lock:
            while True:
                if self._error is not None:
                    raise self._error
                if self._closed:
                    raise StreamClosed(f"stream {self.name!r} is closed")
                exc = self._interruption()
                if exc is not None:
                    raise exc
                if len(self._queue) < self.capacity:
                    break
                self._put_waits += 1
                self._not_full.wait()
            self._queue.append(item)
            self._puts += 1
            depth = len(self._queue)
            if depth > self._high_water:
                self._high_water = depth
            self._not_empty.notify()

    # -- consuming ------------------------------------------------------
    def get(self) -> Any:
        """Dequeue the next element, blocking while the stream is
        empty.  Returns :data:`EOS` once the stream is closed *and*
        drained; raises the poisoning error if the stream was
        poisoned, or the runtime's interruption while parked."""
        with self._lock:
            while True:
                if self._error is not None:
                    raise self._error
                if self._queue:
                    item = self._queue.popleft()
                    self._gets += 1
                    self._not_full.notify()
                    return item
                if self._closed:
                    return EOS
                exc = self._interruption()
                if exc is not None:
                    raise exc
                self._get_waits += 1
                self._not_empty.wait()

    def __iter__(self) -> Iterator[Record]:
        """Drain the stream: yields records until EOS."""
        while True:
            item = self.get()
            if item is EOS:
                return
            yield item

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Graceful end-of-stream: queued elements still drain, then
        readers observe :data:`EOS`; further puts raise
        :class:`StreamClosed`.  Idempotent."""
        with self._lock:
            self._closed = True
            self._not_full.notify_all()
            self._not_empty.notify_all()
        self._unregister()

    def poison(self, error: BaseException) -> int:
        """Abortive close: drop everything queued (freeing every
        credit), record *error*, and wake every waiter — current and
        future puts/gets raise it.  Returns the number of elements
        dropped.  The first poisoning error wins."""
        with self._lock:
            dropped = len(self._queue)
            self._queue.clear()
            self._dropped += dropped
            self._closed = True
            if self._error is None:
                self._error = error
            self._not_full.notify_all()
            self._not_empty.notify_all()
        self._unregister()
        return dropped

    # -- inspection -----------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def error(self) -> BaseException | None:
        return self._error

    def depth(self) -> int:
        """Elements currently queued."""
        with self._lock:
            return len(self._queue)

    def credits(self) -> int:
        """Backpressure credits currently available to producers: the
        free slots, ``capacity - depth``."""
        with self._lock:
            return self.capacity - len(self._queue)

    def stats(self) -> dict:
        with self._lock:
            return {
                "name": self.name,
                "capacity": self.capacity,
                "depth": len(self._queue),
                "credits": self.capacity - len(self._queue),
                "puts": self._puts,
                "gets": self._gets,
                "dropped": self._dropped,
                "high_water": self._high_water,
                "put_waits": self._put_waits,
                "get_waits": self._get_waits,
                "closed": self._closed,
                "poisoned": self._error is not None,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Stream {self.name!r} depth={len(self._queue)}/"
            f"{self.capacity} closed={self._closed}>"
        )
