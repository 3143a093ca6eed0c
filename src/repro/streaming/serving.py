"""Online AF inference serving: the flagship streaming workload.

A rate-controlled synthetic-ECG source feeds a stream graph of three
operator chains that reproduces, online, exactly what the batch AF
pipeline (:mod:`repro.workflows.af_pipeline`) does offline:

``ecg source`` → ``key_by(patient)`` → ``tumbling count window``
(chunks → one segment per patient) → ``features`` (R-peak detection +
log-STFT spectrogram, the CNN's input representation) → ``microbatch``
→ ``infer`` (a ``submit_many()`` micro-batched task on the
:func:`repro.nn.af_cnn` model — the stream stage awaits the DAG
future) → ``predictions sink``.  The window and the micro-batch end a
chain each, so the graph runs on three threads joined by two streams.

Because every transformation is a shared pure function and windowing
runs through the same :class:`~repro.streaming.operators` windower,
:func:`serve_batch` can replay the identical bounded feed as an
ordinary task DAG — the differential suite requires the two paths to
be **bit-identical**, on both the threaded and sequential executors.

Per-stage p50/p99 latency, throughput and queue-depth gauges flow
through the runtime's :class:`~repro.runtime.observability.MetricsRegistry`
(``repro_stream_*`` series in the Prometheus exposition); the
micro-batch inference tasks appear in ``repro trace`` like any other
task.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import time
from typing import Any, Iterator

import numpy as np
from scipy import signal as sp_signal

from repro.ecg import ECGConfig, generate_recording, pan_tompkins, rr_intervals
from repro.runtime import task, wait_on
from repro.runtime.engine import Runtime, active_runtime
from repro.streaming.channel import Record
from repro.streaming.graph import StreamGraph
from repro.streaming.operators import TumblingCountWindow, run_windowed


@dataclasses.dataclass
class ServeConfig:
    """Knobs of the serving scenario (defaults: a seconds-scale run)."""

    seed: int = 0
    fs: float = 300.0
    #: seconds of signal per stream chunk (the source's record unit).
    chunk_seconds: float = 0.5
    #: chunks per diagnostic segment — the tumbling window size.
    chunks_per_segment: int = 6
    #: total segments in the bounded feed (across all patients).
    n_segments: int = 12
    #: simulated concurrent patients; chunks interleave round-robin and
    #: ``key_by(patient)`` windows them independently.
    patients: int = 2
    #: micro-batch size for model inference.
    batch_size: int = 4
    #: source pacing in chunks/second (None = replay at full speed).
    rate: float | None = None
    nperseg: int = 64
    decimate: int = 2
    #: capacity (credits) of the streams after ``segment`` and ``microbatch``.
    capacity: int = 32
    label_cycle: tuple = ("N", "AF", "O")
    #: generator settings; None = ``ECGConfig(fs=fs)``.  Its ``fs`` must
    #: equal ``fs`` above: chunking and the features stage run at that rate.
    ecg: ECGConfig | None = None

    @property
    def chunk_len(self) -> int:
        return int(self.fs * self.chunk_seconds)


def iter_feed(cfg: ServeConfig) -> Iterator[tuple]:
    """The deterministic bounded ECG feed.

    Yields ``(patient, segment_index, chunk_index, chunk, label)``
    tuples: segments are generated whole (seeded per segment, so the
    feed is replayable bit-for-bit), split into chunks, and emitted
    round-robin across the patients of each round — the interleaving a
    real multi-patient ingest would show.

    Recordings are synthesised at ``cfg.fs`` (``ValueError`` if
    ``cfg.ecg`` names another rate), so a segment is exactly
    ``chunks_per_segment * chunk_len`` samples."""
    ecg = cfg.ecg or ECGConfig(fs=cfg.fs)
    if ecg.fs != cfg.fs:
        raise ValueError(
            f"ServeConfig.fs={cfg.fs} Hz but ServeConfig.ecg.fs={ecg.fs} Hz: the "
            "feed is chunked and analysed at the rate it is synthesised at"
        )
    rounds = (cfg.n_segments + cfg.patients - 1) // cfg.patients
    for r in range(rounds):
        seg_ids = [
            r * cfg.patients + p
            for p in range(cfg.patients)
            if r * cfg.patients + p < cfg.n_segments
        ]
        chunks: dict[int, tuple[list, str]] = {}
        for seg in seg_ids:
            label = cfg.label_cycle[(seg // cfg.patients) % len(cfg.label_cycle)]
            rng = np.random.default_rng(cfg.seed * 100_003 + seg * 7_919 + 1)
            signal = generate_recording(
                label, cfg.chunks_per_segment * cfg.chunk_seconds, rng, ecg
            )
            n = cfg.chunk_len
            chunks[seg] = (
                [
                    signal[j * n : (j + 1) * n]
                    for j in range(cfg.chunks_per_segment)
                ],
                label,
            )
        for j in range(cfg.chunks_per_segment):
            for seg in seg_ids:
                seg_chunks, label = chunks[seg]
                yield (seg % cfg.patients, seg, j, seg_chunks[j], label)


def assemble_segment(values: list) -> dict:
    """Window aggregate: one patient's chunks → one contiguous segment."""
    patient, seg_index, _, _, label = values[0]
    signal = np.concatenate([v[3] for v in values])
    return {
        "patient": patient,
        "segment": seg_index,
        "label": label,
        "signal": signal,
    }


@functools.lru_cache(maxsize=16)
def _stft_window(nperseg: int) -> np.ndarray:
    """The window :func:`scipy.signal.spectrogram` builds from its
    default ``('tukey', 0.25)`` for *nperseg* samples — it depends on
    nothing else, so it is built once per process (read-only: every
    segment gets the same array)."""
    window = sp_signal.get_window(("tukey", 0.25), nperseg)
    window.flags.writeable = False
    return window


def segment_features(seg: dict, cfg: ServeConfig) -> dict:
    """R-peak + STFT feature extraction for one segment — the same
    representation :func:`repro.workflows.af_pipeline.run_cnn` trains
    on (decimate → spectrogram → log1p → per-record z-norm), plus the
    heart-rate statistics a live dashboard wants.

    Nothing that is constant across segments is rebuilt here: the
    spectrogram takes the memoised :func:`_stft_window` (scipy treats
    ``window=<array>`` exactly as ``nperseg=len(array)`` with its
    default window) and :func:`~repro.ecg.pan_tompkins` its memoised
    band-pass, so ``x`` is bit-for-bit what the per-call design gave.
    """
    sig = seg["signal"]
    dec = sig[:: cfg.decimate] if cfg.decimate > 1 else sig
    fs_eff = cfg.fs / max(cfg.decimate, 1)
    # like scipy, shrink the window to a segment shorter than nperseg
    window = _stft_window(min(cfg.nperseg, len(dec)))
    _, _, spec = sp_signal.spectrogram(dec, fs=fs_eff, window=window)
    x = np.log1p(spec)  # (freq_channels, time_frames)
    mu = x.mean()
    sd = x.std()
    if sd == 0:
        sd = 1.0
    x = (x - mu) / sd
    peaks = pan_tompkins(sig, cfg.fs)
    rr = rr_intervals(peaks, cfg.fs)
    hr = float(60.0 / rr.mean()) if rr.size else 0.0
    return {
        "patient": seg["patient"],
        "segment": seg["segment"],
        "label": seg["label"],
        "x": x,
        "n_peaks": int(len(peaks)),
        "hr_bpm": hr,
    }


@task(returns=1, name="stream_infer")
def _predict_batch(model, xb: np.ndarray) -> np.ndarray:
    """Micro-batched forward pass (class probabilities)."""
    return model.predict_proba(xb)


def make_model(cfg: ServeConfig):
    """The serving model: the paper's AF CNN shaped to this config's
    spectrogram, deterministically initialised from ``cfg.seed`` (the
    differential suite needs replayable weights, not accuracy; train
    with :mod:`repro.nn` and ``set_weights`` for a real deployment)."""
    from repro.nn import af_cnn

    # segment 0 is complete within the feed's first round, and islice
    # stops pulling there: at most cfg.patients recordings are generated
    first = itertools.islice(
        (v for v in iter_feed(cfg) if v[1] == 0), cfg.chunks_per_segment
    )
    probe = segment_features(assemble_segment(list(first)), cfg)
    channels, length = probe["x"].shape
    return af_cnn(input_length=length, in_channels=channels, seed=cfg.seed)


def _flatten_predictions(feats: list, probs: np.ndarray) -> list:
    out = []
    for k, f in enumerate(feats):
        out.append(
            {
                "patient": f["patient"],
                "segment": f["segment"],
                "label": f["label"],
                "pred": int(np.argmax(probs[k])),
                "prob_af": float(probs[k, 1]),
                "hr_bpm": f["hr_bpm"],
                "n_peaks": f["n_peaks"],
            }
        )
    return out


@dataclasses.dataclass
class ServingResult:
    """What a serving run (streamed or batch-replayed) produced."""

    predictions: list
    probs: np.ndarray
    elapsed_s: float
    stage_stats: dict | None = None
    metrics: dict | None = None

    @property
    def throughput_rps(self) -> float:
        n = len(self.predictions)
        return n / self.elapsed_s if self.elapsed_s > 0 else 0.0


def serve_stream(
    cfg: ServeConfig,
    runtime: Runtime | None = None,
    model=None,
    *,
    gauge_interval: float | None = None,
) -> ServingResult:
    """Run the online serving pipeline over the bounded feed.

    ``gauge_interval`` (seconds) republishes live queue-depth and
    latency gauges into the metrics registry while the graph runs —
    the ``repro serve-stream`` demo uses it."""
    rt = runtime if runtime is not None else active_runtime()
    if rt is None:
        raise RuntimeError("serve_stream needs an active Runtime")
    if model is None:
        model = make_model(cfg)

    def infer(batch: list) -> list:
        xb = np.stack([f["x"] for f in batch])
        fut = rt.submit_many([_predict_batch.defer(model, xb)])[0]
        probs = wait_on(fut)  # the stream stage awaits a DAG result
        return _flatten_predictions(batch, probs)

    t0 = time.monotonic()
    g = StreamGraph(rt, name="af-serving", capacity=cfg.capacity)
    src = g.source(
        lambda: iter_feed(cfg),
        name="ecg",
        rate=cfg.rate,
    )
    keyed = g.key_by(src, lambda v: v[0], name="key_by_patient")
    segments = g.window(
        keyed,
        TumblingCountWindow(cfg.chunks_per_segment),
        fn=assemble_segment,
        name="segment",
    )
    feats = g.map(segments, lambda s: segment_features(s, cfg), name="features")
    batches = g.batch(feats, cfg.batch_size, name="microbatch")
    preds = g.flat_map(batches, infer, name="infer")
    sink = g.sink(preds, name="predictions")

    g.start()
    if gauge_interval:
        while any(s.thread is not None and s.thread.is_alive() for s in g.stages):
            g.publish_gauges()
            time.sleep(gauge_interval)
    g.join()
    elapsed = time.monotonic() - t0
    g.publish_gauges()

    predictions = list(sink.collected)
    probs = (
        np.vstack([[1.0 - p["prob_af"], p["prob_af"]] for p in predictions])
        if predictions
        else np.empty((0, 2))
    )
    metrics = g.metrics_snapshot()
    return ServingResult(
        predictions=predictions,
        probs=probs,
        elapsed_s=elapsed,
        stage_stats=metrics["stages"],
        metrics=metrics,
    )


def serve_batch(
    cfg: ServeConfig, runtime: Runtime | None = None, model=None
) -> ServingResult:
    """The batch-DAG twin: replay the identical bounded feed through
    the same windowing, feature and micro-batch functions as one
    ordinary task graph (all micro-batches via one ``submit_many``).
    The differential gate diffs its output against
    :func:`serve_stream` bit-for-bit."""
    rt = runtime if runtime is not None else active_runtime()
    if rt is None:
        raise RuntimeError("serve_batch needs an active Runtime")
    if model is None:
        model = make_model(cfg)

    t0 = time.monotonic()
    records = [Record(v, key=v[0]) for v in iter_feed(cfg)]
    segments = run_windowed(
        TumblingCountWindow(cfg.chunks_per_segment), records, fn=assemble_segment
    )
    feats = [segment_features(r.value, cfg) for r in segments]
    batches = [
        feats[s : s + cfg.batch_size]
        for s in range(0, len(feats), cfg.batch_size)
    ]
    calls = [
        _predict_batch.defer(model, np.stack([f["x"] for f in b]))
        for b in batches
    ]
    futures = rt.submit_many(calls)
    predictions: list = []
    for batch, fut in zip(batches, futures):
        predictions.extend(_flatten_predictions(batch, wait_on(fut)))
    elapsed = time.monotonic() - t0
    probs = (
        np.vstack([[1.0 - p["prob_af"], p["prob_af"]] for p in predictions])
        if predictions
        else np.empty((0, 2))
    )
    return ServingResult(predictions=predictions, probs=probs, elapsed_s=elapsed)
