"""``stream_serve``: online AF inference over the streaming layer.

(a) *sustained*, closed loop through credit backpressure: the bounded
feed replayed unpaced; (b) *paced*, an open loop at a fixed chunk rate,
ingest → sink latency.  ``repro.streaming`` stage threads, credit
channels, windowing and the stage → runtime ``submit_many`` hop carry
the cost; the runtime runs one task per micro-batch.  Predictions must
be bit-identical to ``serve_batch`` (the batch twin) on the same feed.
"""

from __future__ import annotations

import contextlib
import dataclasses

from harness import BenchRuntime, Rep, Workload, clock, mismatches, percentile
from repro.streaming import (
    ServeConfig,
    StreamGraph,
    TumblingCountWindow,
    serve_batch,
    serve_stream,
    serving,
)


@contextlib.contextmanager
def captured_graphs():
    """Keep a handle on the graphs ``serve_stream`` builds, to read the
    sink's raw latency reservoir (the program publishes p50 and p99 of
    the whole run; windows and p95 need the samples)."""
    graphs: list = []

    class Capturing(serving.StreamGraph):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            graphs.append(self)

    original = serving.StreamGraph
    serving.StreamGraph = Capturing
    try:
        yield graphs
    finally:
        serving.StreamGraph = original


def stage_problems(result, label: str) -> list[str]:
    return [
        f"{label}: stage {name} errors={s['errors']} dropped={s['dropped']}"
        for name, s in result.stage_stats.items()
        if s["errors"] or s["dropped"]
    ]


class StreamServe(Workload):
    name = "stream_serve"
    op = "chunk"
    reference = "serve_batch"
    share_a = 0.5
    #: (a) 40 segments = 240 chunks per repetition (~65 ms);
    #: (b) 600 chunks/s (a sixth of what (a) sustains) for half the run
    FULL = {
        "segments": 40, "patients": 4, "batch_size": 4,
        "rate": 600.0, "window_s": 1.0, "int_records": 20000,
    }
    SMOKE = {
        "segments": 16, "patients": 4, "batch_size": 4,
        "rate": 600.0, "window_s": 0.25, "int_records": 500,
    }

    def setup(self) -> None:
        sz = self.sz
        self.cfg = ServeConfig(
            seed=self.seed, n_segments=sz["segments"],
            patients=sz["patients"], batch_size=sz["batch_size"],
        )
        self.model = serving.make_model(self.cfg)
        with BenchRuntime(self) as b:
            t0 = clock()
            twin = serve_batch(self.cfg, b.rt, self.model)
            self.setup_layer["stream.batch_twin_s"] = clock() - t0
        self.want = twin.predictions
        with BenchRuntime(self) as b:
            serve_stream(self.cfg, b.rt, self.model)

    def rep(self, **pins) -> Rep:
        cfg = self.cfg
        with BenchRuntime(self, **pins) as b, b.timed():
            with self.rec.span("streaming.serve_stream"):
                result = serve_stream(cfg, b.rt, self.model)
        rep = b.result(cfg.n_segments * cfg.chunks_per_segment, result.predictions)
        rep.problems.extend(stage_problems(result, self.name))
        if b.layer:
            streams = result.metrics["streams"].values()
            rep.layer.update(
                {
                    "stream.features_p50_ms": result.stage_stats["features"]["p50_ms"],
                    "stream.infer_p50_ms": result.stage_stats["infer"]["p50_ms"],
                    "stream.put_waits": sum(s["put_waits"] for s in streams),
                    "stream.high_water": max(s["high_water"] for s in streams),
                }
            )
        return rep

    def latency(self, seconds: float, calibrate) -> list[dict]:
        """(b) paced: the source emits on a schedule whatever the
        pipeline does; latency is the program's own ingest → sink stamp
        (the last chunk of a micro-batch to its predictions).  The
        section is a series of one-second paced feeds, each between two
        readings of the host's speed."""
        cfg, sz = self.cfg, self.sz
        per_round = cfg.chunks_per_segment * cfg.patients
        rounds = max(1, round(sz["rate"] * sz["window_s"] / per_round))
        paced = dataclasses.replace(cfg, n_segments=rounds * cfg.patients, rate=sz["rate"])
        n_chunks = paced.n_segments * cfg.chunks_per_segment
        # the reference: the batch twin on the same (longer) feed
        with BenchRuntime(self) as b:
            twin = serve_batch(dataclasses.replace(paced, rate=None), b.rt, self.model)
        want = twin.predictions
        self.problems += b.problems
        windows, lag_ms = [], []
        before = calibrate()
        t_end = clock() + seconds
        while not windows or clock() + sz["window_s"] < t_end:
            with captured_graphs() as graphs, BenchRuntime(self) as b:
                t0 = clock()
                with self.rec.span("streaming.serve_stream"):
                    result = serve_stream(paced, b.rt, self.model)
                elapsed = clock() - t0
            self.problems += b.problems + stage_problems(result, self.name)
            self.attempted += n_chunks
            self.wrong += mismatches(result.predictions, want)
            # the sink's reservoir holds the ingest -> sink latencies in
            # arrival order (it is larger than the paced feed)
            sink = next(s for s in graphs[0].stages if s.name == "predictions")
            after = calibrate()
            windows.append(
                {
                    "samples_ms": [s * 1e3 for s in sink.stats.latencies],
                    "cal_s": [before, after],
                }
            )
            lag_ms.append((elapsed - n_chunks / sz["rate"]) * 1e3)
            before = after
        samples = [s for w in windows for s in w["samples_ms"]]
        self.latency_layer = {
            "stream.source_lag_ms": percentile(lag_ms, 0.5),
            "stream.latency_p50_ms": percentile(samples, 0.5),
            "stream.latency_p95_ms": percentile(samples, 0.95),
        }
        return windows

    def _int_pipeline(self) -> float:
        """map → filter → window → sink over integers: what the
        channels and stage loops cost with empty operator bodies."""
        n = self.sz["int_records"]
        with BenchRuntime(self) as b:
            t0 = clock()
            g = StreamGraph(b.rt, name="int-pipeline")
            s = g.source(range(n), name="ints")
            s = g.map(s, lambda v: v + 1, name="inc")
            s = g.filter(s, lambda v: v % 2 == 0, name="even")
            s = g.window(s, TumblingCountWindow(10), fn=sum, name="sum10")
            sink = g.sink(s, name="out", collect=True)
            with g:
                pass
            elapsed = clock() - t0
            sums = g.results(sink)
        evens = [v for v in range(1, n + 1) if v % 2 == 0]
        want = [sum(evens[i : i + 10]) for i in range(0, len(evens), 10)]
        self.attempted += n
        self.wrong += mismatches(sums, want)
        self.problems += b.problems
        return n / elapsed

    def extras(self, base_wall, layer):
        out = self.seq_baseline(layer)
        out["stream.int_records_per_s"] = self._int_pipeline()
        return out
