"""Online AF serving: shapes, determinism, and the streamed-vs-batch
bit-identity differential (threads/sequential)."""

from __future__ import annotations

import sys
import warnings

import numpy as np
import pytest
from scipy import signal as sp_signal

from repro.ecg import ECGConfig, generate_recording
from repro.runtime import Runtime
from repro.runtime.config import RuntimeConfig
from repro.streaming import (
    ServeConfig,
    make_model,
    serve_batch,
    serve_stream,
)
from repro.streaming.serving import iter_feed
from repro.streaming import serving

CFG = ServeConfig(
    n_segments=6, patients=2, chunks_per_segment=4, chunk_seconds=0.5, batch_size=2
)


@pytest.fixture(scope="module")
def model():
    return make_model(CFG)


def runtime(**kw):
    kw.setdefault("executor", "threads")
    kw.setdefault("max_workers", 2)
    return Runtime(config=RuntimeConfig(**kw))


def test_feed_is_deterministic_and_interleaved():
    feed1 = list(iter_feed(CFG))
    feed2 = list(iter_feed(CFG))
    assert len(feed1) == CFG.n_segments * CFG.chunks_per_segment
    for a, b in zip(feed1, feed2):
        assert a[:3] == b[:3] and a[4] == b[4]
        np.testing.assert_array_equal(a[3], b[3])
    # round-robin across patients: consecutive chunks alternate patient
    patients = [v[0] for v in feed1[: 2 * CFG.patients]]
    assert patients == [0, 1, 0, 1]
    # every chunk has the configured length
    assert all(len(v[3]) == CFG.chunk_len for v in feed1)


def _segments_vs_whole_recordings(cfg, ecg):
    """Each segment of the feed, reassembled, next to the recording the
    generator draws for it at *ecg* (the feed's per-segment seeding)."""
    feed = list(iter_feed(cfg))
    for seg_id in range(cfg.n_segments):
        seg = serving.assemble_segment([v for v in feed if v[1] == seg_id])
        rng = np.random.default_rng(cfg.seed * 100_003 + seg_id * 7_919 + 1)
        seconds = cfg.chunks_per_segment * cfg.chunk_seconds
        yield seg["signal"], generate_recording(seg["label"], seconds, rng, ecg)


def test_feed_is_synthesised_at_the_configured_rate():
    """``ServeConfig.fs`` reaches the generator: at 250 Hz a segment is
    six whole 125-sample chunks, not 900 samples cut to 750."""
    cfg = ServeConfig(fs=250.0, n_segments=2, patients=2)
    assert all(len(v[3]) == cfg.chunk_len == 125 for v in iter_feed(cfg))
    for signal, whole in _segments_vs_whole_recordings(cfg, ECGConfig(fs=250.0)):
        assert len(signal) == cfg.chunks_per_segment * cfg.chunk_len
        assert signal.tobytes() == whole.tobytes()  # nothing dropped
    # an explicit generator config at the same rate is the same feed
    explicit = ServeConfig(fs=250.0, n_segments=2, patients=2, ecg=ECGConfig(fs=250.0))
    assert [v[3].tobytes() for v in iter_feed(explicit)] == [
        v[3].tobytes() for v in iter_feed(cfg)
    ]


def test_feed_rejects_a_generator_at_another_rate():
    cfg = ServeConfig(fs=250.0, ecg=ECGConfig(noise_std=0.1))  # ecg.fs is 300
    with pytest.raises(ValueError, match=r"fs=250\.0 Hz.*ecg\.fs=300\.0 Hz"):
        next(iter_feed(cfg))


def test_default_feed_bytes_unchanged():
    """The default config (300 Hz both sides) is still the generator's
    defaults: recordings drawn with no ``ECGConfig`` at all."""
    for signal, whole in _segments_vs_whole_recordings(CFG, None):
        assert signal.tobytes() == whole.tobytes()


def test_serve_stream_produces_one_prediction_per_segment(model):
    with runtime() as rt:
        res = serve_stream(CFG, rt, model)
    assert len(res.predictions) == CFG.n_segments
    assert res.probs.shape == (CFG.n_segments, 2)
    np.testing.assert_allclose(res.probs.sum(axis=1), 1.0, atol=1e-9)
    segs = sorted(p["segment"] for p in res.predictions)
    assert segs == list(range(CFG.n_segments))
    for p in res.predictions:
        assert p["pred"] in (0, 1)
        assert 0.0 <= p["prob_af"] <= 1.0
        assert p["n_peaks"] >= 0
    # per-stage stats cover the whole topology
    assert set(res.stage_stats) == {
        "ecg",
        "key_by_patient",
        "segment",
        "features",
        "microbatch",
        "infer",
        "predictions",
    }
    assert res.stage_stats["ecg"]["n_out"] == len(list(iter_feed(CFG)))
    assert res.stage_stats == res.metrics["stages"]  # one snapshot, two views


@pytest.mark.parametrize("backend", ["threads", "sequential"])
def test_differential_stream_vs_batch_bit_identical(model, backend):
    """The differential gate: the same bounded feed through the
    streaming pipeline and through the equivalent batch DAG must give
    byte-for-byte identical predictions."""
    with runtime(executor=backend) as rt:
        streamed = serve_stream(CFG, rt, model)
    with runtime(executor=backend) as rt:
        batch = serve_batch(CFG, rt, model)
    assert streamed.predictions == batch.predictions
    assert np.array_equal(streamed.probs, batch.probs)


def test_differential_across_backends(model):
    with runtime(executor="threads") as rt:
        a = serve_stream(CFG, rt, model)
    with runtime(executor="sequential") as rt:
        b = serve_stream(CFG, rt, model)
    assert a.predictions == b.predictions


def test_rate_limited_serving_still_exact(model):
    cfg = ServeConfig(
        n_segments=2,
        patients=1,
        chunks_per_segment=4,
        chunk_seconds=0.5,
        batch_size=2,
        rate=400.0,
    )
    with runtime() as rt:
        paced = serve_stream(cfg, rt, model=None)
        full = serve_batch(cfg, rt, model=None)
    assert paced.predictions == full.predictions
    assert paced.elapsed_s >= 8 / 400.0 * 0.5  # pacing actually happened


@pytest.mark.parametrize("rate", ["0", "-5", "inf", "nan", "fast"])
def test_serve_stream_cli_rejects_a_rate_that_is_not_positive(rate, capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["serve-stream", "--rate", rate])
    assert exc.value.code == 2
    assert "--rate" in capsys.readouterr().err


@pytest.mark.parametrize("executor", ["sequential", "threads"])
def test_serve_stream_cli_runs_on_the_executor_it_names(executor, monkeypatch, capsys):
    import repro.streaming
    from repro.cli import main

    seen = []

    def spy(cfg, rt):
        seen.append(rt.executor)
        return serve_stream(cfg, rt)

    monkeypatch.setattr(repro.streaming, "serve_stream", spy)
    assert main(["serve-stream", "--executor", executor, "--segments", "2", "--patients", "1"]) == 0
    assert seen == [executor]
    assert "served 2 segment prediction(s)" in capsys.readouterr().out


def _first_segment(cfg):
    chunks = [v for v in iter_feed(cfg) if v[1] == 0]
    return serving.assemble_segment(chunks)


@pytest.mark.parametrize(
    "cfg",
    [
        CFG,
        ServeConfig(seed=3, n_segments=1, patients=1),
        ServeConfig(seed=4, n_segments=1, patients=1, nperseg=32, decimate=1),
        # a segment shorter than nperseg: scipy shrinks the window to it
        ServeConfig(seed=5, n_segments=1, patients=1, chunks_per_segment=2,
                    chunk_seconds=0.5, nperseg=256, decimate=2),
    ],
    ids=["module-cfg", "defaults", "nperseg32-no-decimate", "short-segment"],
)
def test_segment_features_bytes_equal_per_call_window(cfg):
    """The memoised window changes no bit of the feature tensor: the
    reference lets scipy build its default window from ``nperseg``."""
    seg = _first_segment(cfg)
    dec = seg["signal"][:: cfg.decimate] if cfg.decimate > 1 else seg["signal"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # nperseg > input length
        _, _, spec = sp_signal.spectrogram(
            dec, fs=cfg.fs / cfg.decimate, nperseg=cfg.nperseg
        )
    ref = np.log1p(spec)
    ref = (ref - ref.mean()) / ref.std()
    got = serving.segment_features(seg, cfg)["x"]
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
    with pytest.raises(ValueError):
        serving._stft_window(cfg.nperseg)[0] = 1.0  # shared, so read-only


def test_make_model_probe_stops_at_the_first_segment(monkeypatch):
    """Shaping the model needs segment 0 only: the probe must not
    synthesise the rest of the feed."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return generate(*args, **kwargs)

    generate = serving.generate_recording
    monkeypatch.setattr(serving, "generate_recording", counting)
    cfg = ServeConfig(n_segments=40, patients=4)
    probed = make_model(cfg)
    assert 1 <= len(calls) <= cfg.patients
    monkeypatch.undo()
    # same shape as probing the whole feed: same architecture and weights
    from repro.nn import af_cnn

    channels, length = serving.segment_features(_first_segment(cfg), cfg)["x"].shape
    full = af_cnn(input_length=length, in_channels=channels, seed=cfg.seed)
    assert probed.config() == full.config()
    for w, ref in zip(probed.get_weights(), full.get_weights()):
        assert w.tobytes() == ref.tobytes()


def test_steady_state_serving_designs_no_filter_or_window(monkeypatch):
    """After one warm-up segment a serving run designs nothing: no
    Butterworth, no window — neither ours nor scipy's own."""
    cfg = ServeConfig(seed=2, n_segments=16, patients=2, batch_size=4)
    model = make_model(cfg)  # the warm-up: one segment through the features
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    spectral = sys.modules[sp_signal.spectrogram.__module__]
    monkeypatch.setattr(sp_signal, "butter", counted("butter", sp_signal.butter))
    monkeypatch.setattr(
        sp_signal, "get_window", counted("get_window", sp_signal.get_window)
    )
    monkeypatch.setattr(
        spectral, "get_window", counted("scipy's get_window", spectral.get_window)
    )
    with runtime() as rt:
        res = serve_stream(cfg, rt, model)
    assert len(res.predictions) == cfg.n_segments
    assert calls == []
