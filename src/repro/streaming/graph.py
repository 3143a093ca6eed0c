"""Stream graphs: operator chains joined by bounded streams.

A :class:`StreamGraph` is the hybrid task+dataflow construct.  Its
stages (source, ``map``/``filter``/``flat_map``/``key_by``, windowed
operators, ``batch``, sink) form *chains*: a stage runs on its
upstream's thread, which hands it each record by a direct call.  A
bounded :class:`~repro.streaming.channel.Stream` with credit-based
backpressure is created only after a stage that aggregates
(``window``, ``batch``), where the record rate drops; it is the one
thread boundary, and the stage that reads it heads the next chain.
Chain threads are *bound* to the owning
:class:`~repro.runtime.engine.Runtime` (``bind_current_thread``), so a
stage body is full task-runtime territory: it can call ``@task``
functions, ``submit_many()`` micro-batches, and ``wait_on`` the
resulting futures — and ordinary DAG tasks can symmetrically block on
a stream result.  That is the hybrid-workflows model (Ramon-Cortes et
al.) the source paper's group built on COMPSs.

Lifecycle integration with the runtime:

* every stream registers an interrupt notifier, so kill/abort/shutdown
  reaches threads parked on a full or empty stream, and a source checks
  the runtime's interruption before each pull;
* the graph registers a shutdown **drain hook**: ``shutdown(wait=True)``
  first stops the sources and joins the chains (flushing in-flight
  windows through the pipeline) and only then waits for the unfinished
  task count — stream scopes drain like everything else;
* a stage failure applies the runtime's failure-policy vocabulary
  **per element**: ``RETRY`` re-applies the operator to the element
  (up to ``max_retries``), ``IGNORE`` drops it, ``FAIL`` /
  ``CANCEL_SUCCESSORS`` poison every stream so the whole graph unwinds
  with zero leaked queue slots and ``join()`` raises
  :class:`StreamFailure`.
"""

from __future__ import annotations

import collections
import dataclasses
import math
import threading
import time
from typing import Any, Callable

from repro.runtime import tracectx as _tracectx
from repro.runtime.engine import Runtime, active_runtime
from repro.runtime.failures import CANCEL_SUCCESSORS, FAIL, IGNORE, RETRY
from repro.streaming.channel import EOS, Record, Stream
from repro.streaming.operators import TumblingCountWindow

#: Latency reservoir length per stage — enough for stable p99 at test
#: scale without unbounded growth on long-running pipelines.
_RESERVOIR = 4096

#: Rate-controlled sources sleep in chunks no longer than this so a
#: drain request interrupts the pacing promptly.
_MAX_SLEEP = 0.05

#: What a record-rate operator's result means: the records it passes on.
_EMITS: dict[str, Callable[[Record, Any], Any]] = {
    "map": lambda item, value: (item.replace(value),),
    "filter": lambda item, keep: (item,) if keep else (),
    "flat_map": lambda item, values: (item.replace(v) for v in values),
    "key_by": lambda item, key: (Record(item.value, key, item.ingest),),
}


class StreamFailure(Exception):
    """A stage failed terminally (or the runtime was interrupted) and
    the graph unwound.  ``stage`` names the failing stage; the original
    error is chained as ``__cause__``."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stream stage {stage!r}: {message}")
        self.stage = stage


def _percentile(ordered: list[float], q: float) -> float:
    """Quantile *q* of an already sorted sample list (0.0 when empty)."""
    if not ordered:
        return 0.0
    idx = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[idx]


@dataclasses.dataclass
class StageStats:
    """Counters and latency reservoir of one stage (its ``join()``
    deliverable)."""

    name: str
    kind: str
    n_in: int = 0
    n_out: int = 0
    errors: int = 0
    retries: int = 0
    dropped: int = 0
    error: str | None = None
    started_at: float | None = None
    finished_at: float | None = None
    latencies: collections.deque = dataclasses.field(
        default_factory=lambda: collections.deque(maxlen=_RESERVOIR)
    )

    def snapshot(self) -> dict:
        ordered = sorted(self.latencies)  # one sort serves both quantiles
        elapsed = (
            (self.finished_at or time.monotonic()) - self.started_at
            if self.started_at is not None
            else 0.0
        )
        return {
            "name": self.name,
            "kind": self.kind,
            "n_in": self.n_in,
            "n_out": self.n_out,
            "errors": self.errors,
            "retries": self.retries,
            "dropped": self.dropped,
            "error": self.error,
            "p50_ms": _percentile(ordered, 0.50) * 1000.0,
            "p99_ms": _percentile(ordered, 0.99) * 1000.0,
            "rps": self.n_out / elapsed if elapsed > 0 else 0.0,
        }


class _Stage:
    """One operator of a chain.  :meth:`push` takes one record from
    upstream, applies the operator under the failure policy and passes
    what it emits on: to the next stage of the chain by a direct call,
    or into the boundary stream after a ``window``/``batch``.

    A stage is also the handle of its output while that output is
    chained (source, ``map``, ``filter``, ``flat_map``, ``key_by``)."""

    def __init__(
        self,
        graph: "StreamGraph",
        name: str,
        kind: str,
        fn: Callable | None = None,
        *,
        spec: TumblingCountWindow | None = None,
        on_failure: str = FAIL,
        max_retries: int = 2,
        rate: float | None = None,
        items: Any = None,
        collect: bool = False,
    ):
        self.graph = graph
        self.name = name
        self.kind = kind
        self.fn = fn
        self.on_failure = on_failure
        self.max_retries = max_retries
        self.rate = rate
        self.items = items
        self.collect = collect
        self.collected: list = []
        self.stats = StageStats(name=name, kind=kind)
        #: the boundary stream this stage reads (it heads a chain), if any
        self.input: Stream | None = None
        #: the chained consumer of this stage's output, if any
        self.next: _Stage | None = None
        #: the boundary stream a ``window``/``batch`` writes
        self.output: Stream | None = None
        self.thread: threading.Thread | None = None
        self._stop = False
        self._windower = spec.make() if spec is not None else None
        self._emits = _EMITS.get(kind)
        if kind in _EMITS:
            self.push = self._push_record
        elif kind != "source":
            self.push = getattr(self, f"_push_{kind}")

    # -- failure policy around one operator application ----------------
    def _apply(self, fn: Callable, *args: Any) -> tuple[bool, Any]:
        """Apply *fn*, honouring the stage's failure policy.  Returns
        ``(emitted, value)``; raises :class:`StreamFailure` when the
        policy is terminal."""
        attempt = 0
        while True:
            try:
                return True, fn(*args)
            except Exception as exc:  # noqa: BLE001 - policy decides
                self.stats.errors += 1
                if self.on_failure == RETRY and attempt < self.max_retries:
                    attempt += 1
                    self.stats.retries += 1
                    continue
                if self.on_failure == IGNORE:
                    self.stats.dropped += 1
                    return False, None
                raise StreamFailure(
                    self.name,
                    f"operator failed after {attempt + 1} attempt(s)",
                ) from exc

    def _emit(self, item: Record) -> None:
        self.stats.n_out += 1
        self._send(item)

    # -- operators: one record in, what it emits passed on -------------
    # A stage's latency times its own operator, never the downstream
    # chain its emits call into.
    def pump(self, interruption: Callable[[], BaseException | None] | None) -> None:
        """A source's loop: pull each record from the feed and hand it
        down the chain, until the feed ends or the source is stopped."""
        items = iter(self.items() if callable(self.items) else self.items)
        period = 1.0 / self.rate if self.rate is not None else 0.0
        next_t = time.monotonic()
        while not self._stop:
            # A paced source pulls each record at its due time, not
            # right after the last emit: pulling ahead would produce
            # the next record while the stages downstream work on the
            # one just emitted, and take the interpreter lock from them.
            if period:
                next_t += period
                while not self._stop:
                    delay = next_t - time.monotonic()
                    if delay <= 0:
                        break
                    time.sleep(min(delay, _MAX_SLEEP))
                if self._stop:
                    break
            if interruption is not None:
                exc = interruption()
                if exc is not None:
                    raise exc
            t0 = time.monotonic()
            try:
                value = next(items)
            except StopIteration:
                break
            # a source's operator is its feed: time the pull
            self.stats.latencies.append(time.monotonic() - t0)
            self._emit(Record(value, ingest=time.monotonic()))

    def _push_record(self, item: Record) -> None:
        """``map`` / ``filter`` / ``flat_map`` / ``key_by``."""
        self.stats.n_in += 1
        t0 = time.monotonic()
        emitted, value = self._apply(self.fn, item.value)
        self.stats.latencies.append(time.monotonic() - t0)
        if emitted:
            for out in self._emits(item, value):
                self._emit(out)

    def _aggregate(self, window: Record | None) -> Record | None:
        if window is None or self.fn is None:
            return window
        emitted, value = self._apply(self.fn, window.value)
        return window.replace(value) if emitted else None

    def _push_window(self, item: Record) -> None:
        self.stats.n_in += 1
        t0 = time.monotonic()
        window = self._aggregate(self._windower.add(item))
        self.stats.latencies.append(time.monotonic() - t0)
        if window is not None:
            self._emit(window)

    def _push_batch(self, item: Record) -> None:
        # a micro-batch is a count window over every key at once
        self._push_window(Record(item.value, None, item.ingest))

    def _push_sink(self, item: Record) -> None:
        self.stats.n_in += 1
        t0 = time.monotonic()
        if self.fn is not None:
            emitted, value = self._apply(self.fn, item.value)
            if not emitted:
                return
        else:
            value = item.value
        if self.collect:
            self.collected.append(value)
        self.stats.n_out += 1
        # a record's ingest-to-sink time is the sink's headline
        start = t0 if item.ingest is None else item.ingest
        self.stats.latencies.append(time.monotonic() - start)

    def flush(self) -> None:
        """End of input: a ``window``/``batch`` emits its open windows,
        so a bounded feed loses nothing."""
        if self._windower is not None:
            for window in self._windower.flush():
                window = self._aggregate(window)
                if window is not None:
                    self._emit(window)


class StreamGraph:
    """A wiring of stages over one runtime.

    Build the topology with :meth:`source` / :meth:`map` /
    :meth:`window` / ... , then :meth:`start` it and :meth:`join` for
    the per-stage stats.  Use it as a context manager to get
    start/join (or abort on error) automatically.  ``capacity`` is the
    default bound of the streams ``window`` and ``batch`` write.
    """

    def __init__(
        self,
        runtime: Runtime | None = None,
        *,
        name: str = "stream-graph",
        capacity: int = 64,
    ):
        if capacity < 1:
            raise ValueError(f"stream capacity must be >= 1, got {capacity}")
        self.runtime = runtime if runtime is not None else active_runtime()
        self.name = name
        self.capacity = capacity
        self.stages: list[_Stage] = []
        #: the boundary streams, one after each ``window``/``batch``
        self.streams: list[Stream] = []
        self._consumed: set[int] = set()
        self._started = False
        self._joined = False
        self._error: BaseException | None = None
        self._error_stage: str | None = None
        self._lock = threading.Lock()
        #: Root trace context of this graph run (minted at ``start``).
        #: Each chain thread gets a child installed ambiently, so every
        #: ``submit_many`` micro-batch a stage issues joins one trace.
        self.trace_ctx: "_tracectx.TraceContext | None" = None

    # -- topology -------------------------------------------------------
    def _prepare(self, name: str, capacity: int | None = None) -> str:
        """Validate a new stage's name and output capacity *before* any
        stream is created or consumed, so a rejected builder call leaves
        the topology untouched."""
        if self._started:
            raise RuntimeError("cannot add stages to a started graph")
        if any(s.name == name for s in self.stages):
            raise ValueError(f"duplicate stage name {name!r}")
        if capacity is not None and capacity < 1:
            raise ValueError(f"stream capacity must be >= 1, got {capacity}")
        return name

    def _take(self, upstream: "Stream | _Stage") -> "Stream | _Stage":
        chained = (
            isinstance(upstream, _Stage)
            and upstream.graph is self
            and upstream.kind not in ("window", "batch", "sink")
        )
        if not chained and not isinstance(upstream, Stream):
            raise TypeError(
                f"expected a stage output or a Stream, got {type(upstream).__name__}"
            )
        if id(upstream) in self._consumed:
            raise ValueError(
                f"stream {upstream.name!r} already has a consumer; "
                "streams are single-consumer"
            )
        self._consumed.add(id(upstream))
        return upstream

    def _add(self, stage: _Stage, upstream: "Stream | _Stage | None") -> _Stage:
        if isinstance(upstream, Stream):
            stage.input = upstream
        elif upstream is not None:
            upstream.next = stage
            upstream._send = stage.push
        self.stages.append(stage)
        return stage

    def source(
        self,
        items: Any,
        *,
        name: str = "source",
        rate: float | None = None,
    ) -> _Stage:
        """A source stage: emits *items* (an iterable, or a zero-arg
        callable returning one) as records, each handed down its chain
        before the next is pulled.

        ``rate`` (records/second, positive and finite; ``None``: as fast
        as the chain takes them) paces the source: record *k* (from
        1) is pulled from *items* at its due time, *k*/``rate`` after
        the stage starts, and emitted at once.  Nothing is pulled ahead,
        so a drain during the wait pulls nothing more, and end of input
        is seen at the next due time: a paced source closes at most one
        period after its last record.  The source's stage statistics
        time the pull from *items*."""
        if rate is not None and not 0 < rate < math.inf:
            raise ValueError(
                f"rate must be a positive finite number of records/second, got {rate!r}"
            )
        self._prepare(name)
        return self._add(_Stage(self, name, "source", items=items, rate=rate), None)

    def _transform(
        self,
        kind: str,
        upstream: "Stream | _Stage",
        fn: Callable | None,
        name: str | None,
        on_failure: str,
        max_retries: int,
        capacity: int | None = None,
        **stage_options: Any,
    ) -> "Stream | _Stage":
        name = self._prepare(name or f"{kind}{len(self.stages)}", capacity)
        upstream = self._take(upstream)
        stage = _Stage(
            self,
            name,
            kind,
            fn,
            on_failure=on_failure,
            max_retries=max_retries,
            **stage_options,
        )
        self._add(stage, upstream)
        if kind not in ("window", "batch"):
            return stage
        stage.output = Stream(
            capacity if capacity is not None else self.capacity,
            name=f"{self.name}.{name}",
            runtime=self.runtime,
        )
        stage._send = stage.output.put_item
        self.streams.append(stage.output)
        return stage.output

    def map(
        self,
        stream: "Stream | _Stage",
        fn: Callable[[Any], Any],
        *,
        name: str | None = None,
        on_failure: str = FAIL,
        max_retries: int = 2,
    ) -> _Stage:
        return self._transform("map", stream, fn, name, on_failure, max_retries)

    def filter(
        self,
        stream: "Stream | _Stage",
        fn: Callable[[Any], bool],
        *,
        name: str | None = None,
        on_failure: str = FAIL,
        max_retries: int = 2,
    ) -> _Stage:
        return self._transform("filter", stream, fn, name, on_failure, max_retries)

    def flat_map(
        self,
        stream: "Stream | _Stage",
        fn: Callable[[Any], Any],
        *,
        name: str | None = None,
        on_failure: str = FAIL,
        max_retries: int = 2,
    ) -> _Stage:
        return self._transform("flat_map", stream, fn, name, on_failure, max_retries)

    def key_by(
        self,
        stream: "Stream | _Stage",
        fn: Callable[[Any], Any],
        *,
        name: str | None = None,
        on_failure: str = FAIL,
        max_retries: int = 2,
    ) -> _Stage:
        return self._transform("key_by", stream, fn, name, on_failure, max_retries)

    def window(
        self,
        stream: "Stream | _Stage",
        spec: TumblingCountWindow,
        fn: Callable[[list], Any] | None = None,
        *,
        name: str | None = None,
        on_failure: str = FAIL,
        max_retries: int = 2,
        capacity: int | None = None,
    ) -> Stream:
        """A windowed operator: groups records per the spec (and per
        key), optionally aggregates each closed window with ``fn``
        (default: emit the value list).  Its output is a bounded stream
        of *capacity* (default: the graph's) that the next chain reads."""
        return self._transform(
            "window", stream, fn, name, on_failure, max_retries, capacity, spec=spec
        )

    def batch(
        self,
        stream: "Stream | _Stage",
        n: int,
        *,
        name: str | None = None,
        capacity: int | None = None,
    ) -> Stream:
        """Micro-batching: emits lists of up to *n* consecutive values
        (the remainder flushes at end-of-stream) into a bounded stream
        of *capacity* (default: the graph's) that the next chain reads."""
        if n < 1:
            raise ValueError("batch size must be >= 1")
        return self._transform(
            "batch", stream, None, name, FAIL, 0, capacity, spec=TumblingCountWindow(n)
        )

    def sink(
        self,
        stream: "Stream | _Stage",
        fn: Callable[[Any], Any] | None = None,
        *,
        name: str = "sink",
        collect: bool | None = None,
        on_failure: str = FAIL,
        max_retries: int = 2,
    ) -> _Stage:
        """Terminal stage: applies ``fn`` per value (if given) and —
        with ``collect`` (default: collect when no ``fn``) — keeps the
        values in arrival order for :meth:`results`."""
        if collect is None:
            collect = fn is None
        self._prepare(name)
        stage = _Stage(
            self,
            name,
            "sink",
            fn,
            collect=collect,
            on_failure=on_failure,
            max_retries=max_retries,
        )
        return self._add(stage, self._take(stream))

    # -- lifecycle ------------------------------------------------------
    def _chains(self) -> list[list[_Stage]]:
        """Each source, and each stage reading a stream, heads a chain
        that follows the direct-call links to its window, batch or sink."""
        chains = []
        for head in self.stages:
            if head.kind == "source" or head.input is not None:
                chain = [head]
                while chain[-1].next is not None:
                    chain.append(chain[-1].next)
                chains.append(chain)
        return chains

    def start(self) -> "StreamGraph":
        if self._started:
            raise RuntimeError("graph already started")
        if not self.stages:
            raise RuntimeError("graph has no stages")
        dangling = [
            s.name
            for s in self.stages
            if s.kind != "sink" and id(s.output or s) not in self._consumed
        ]
        if dangling:
            raise RuntimeError(
                f"stages whose output has no consumer: {dangling}; every stage "
                "output must feed another stage or a sink"
            )
        self._started = True
        if self.runtime is not None:
            self.runtime.add_drain_hook(self._on_runtime_drain)
            if self.runtime.config.collect_trace:
                self.trace_ctx = _tracectx.child_of(_tracectx.current_context())
        threads = []
        for chain in self._chains():
            t = threading.Thread(
                target=self._run_chain,
                args=(chain,),
                name=f"{self.name}-{chain[0].name}",
                daemon=True,
            )
            for stage in chain:
                stage.thread = t
            threads.append(t)
        for t in threads:
            t.start()
        return self

    def _run_chain(self, chain: list[_Stage]) -> None:
        """The chain driver: feed the head from its source or stream,
        then flush the tail and close the stream it writes."""
        head, tail = chain[0], chain[-1]
        rt = self.runtime
        prev = rt.bind_current_thread() if rt is not None else None
        # Chain-granularity tracing: each chain thread is one span
        # context under the graph root — per-record contexts would cost
        # a minting per element on the streaming hot path.
        prev_ctx = (
            _tracectx.set_context(self.trace_ctx.child())
            if self.trace_ctx is not None
            else None
        )
        started = time.monotonic()
        for stage in chain:
            stage.stats.started_at = started
        try:
            if head.input is None:
                head.pump(rt.interruption if rt is not None else None)
            else:
                push = head.push
                for item in head.input:
                    push(item)
            if self._error is None:  # a failed graph flushes nothing
                tail.flush()
        except BaseException as exc:  # noqa: BLE001 - unwind the graph
            for stage in chain:
                stage.stats.error = repr(exc)
            self._fail(exc.stage if isinstance(exc, StreamFailure) else head.name, exc)
        finally:
            if tail.output is not None:
                tail.output.close()
            finished = time.monotonic()
            for stage in chain:
                stage.stats.finished_at = finished
            if self.trace_ctx is not None:
                _tracectx.set_context(prev_ctx)
            if rt is not None:
                rt.release_current_thread(prev)

    def _fail(self, stage_name: str | None, error: BaseException) -> None:
        """First terminal error wins; every stream is poisoned so all
        chains unwind promptly and no queue slot leaks."""
        with self._lock:
            if self._error is None:
                self._error = error
                self._error_stage = stage_name
            already = self._error is not error
        if already:
            return
        for stage in self.stages:
            stage._stop = True
        for stream in self.streams:
            stream.poison(error)

    def abort(self, error: BaseException | None = None) -> None:
        """Abortively stop the graph: poison every stream, drop queued
        elements.  ``join(raise_on_error=False)`` then collects what
        each stage managed to do."""
        self._fail(None, error or StreamFailure("<graph>", "aborted by caller"))

    def initiate_drain(self) -> None:
        """Graceful stop: sources stop emitting and their chains end;
        in-flight elements (and open windows) flush through the
        remaining stages.  Non-blocking; ``join()`` observes the
        drained end."""
        for stage in self.stages:
            if stage.kind == "source":
                stage._stop = True

    def _on_runtime_drain(self) -> None:
        # Runs inside Runtime.shutdown(wait=True), before the runtime
        # waits out its unfinished count: stop feeding, flush, and join
        # the chain threads so every micro-batch they were going to
        # submit is in the DAG by the time the drain wait starts.
        self.initiate_drain()
        for stage in self.stages:
            if stage.thread is not None:
                stage.thread.join(timeout=30.0)

    def join(
        self, timeout: float | None = None, raise_on_error: bool = True
    ) -> dict[str, StageStats]:
        """Wait for every stage to finish and return per-stage stats.
        Raises :class:`StreamFailure` (chaining the original error) if
        any stage failed terminally, unless ``raise_on_error=False``."""
        if not self._started:
            raise RuntimeError("graph not started")
        deadline = time.monotonic() + timeout if timeout is not None else None
        for stage in self.stages:
            t = stage.thread
            if t is None:
                continue
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            t.join(timeout=remaining)
            if t.is_alive():
                raise StreamFailure(stage.name, f"stage did not finish in {timeout}s")
        if not self._joined:
            self._joined = True
            if self.runtime is not None:
                self.runtime.remove_drain_hook(self._on_runtime_drain)
            for stream in self.streams:
                stream._unregister()
        if raise_on_error and self._error is not None:
            if isinstance(self._error, StreamFailure):
                raise self._error
            raise StreamFailure(
                self._error_stage or "<graph>", "stage failed"
            ) from self._error
        return {s.name: s.stats for s in self.stages}

    def __enter__(self) -> "StreamGraph":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort(exc if isinstance(exc, BaseException) else None)
            self.join(raise_on_error=False)
        else:
            self.join()

    # -- results & telemetry -------------------------------------------
    @property
    def error(self) -> BaseException | None:
        return self._error

    def results(self, sink: "_Stage | str") -> list:
        """Collected values of a ``collect=True`` sink, arrival order."""
        if isinstance(sink, str):
            matches = [s for s in self.stages if s.name == sink]
            if not matches:
                raise KeyError(f"no stage named {sink!r}")
            sink = matches[0]
        return sink.collected

    def metrics_snapshot(self) -> dict:
        """Graph-local telemetry: per-stage p50/p99/throughput and
        per-stream depth/credit accounting."""
        return {
            "graph": self.name,
            "stages": {s.name: s.stats.snapshot() for s in self.stages},
            "streams": {s.name: s.stats() for s in self.streams},
        }


__all__ = [
    "StreamGraph",
    "StreamFailure",
    "StageStats",
    "CANCEL_SUCCESSORS",
    "FAIL",
    "IGNORE",
    "RETRY",
    "EOS",
]
