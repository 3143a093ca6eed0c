"""R-peak detection, patch-shuffle augmentation, padding and STFT."""

from __future__ import annotations

import itertools
import threading

import numpy as np
import pytest
from scipy import signal as sp_signal
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecg import (
    Dataset,
    Record,
    augment_minority,
    gamboa_segmenter,
    generate_dataset,
    generate_recording,
    pan_tompkins,
    rr_intervals,
    stft_features,
    zero_pad,
)
from repro.ecg.augmentation import segment_patches, shuffle_patches
from repro.ecg import rpeaks
from repro.streaming import ServeConfig, serving
from repro.streaming.serving import iter_feed
from tests.ecg.conftest import generate_af, generate_nsr


class TestRPeaks:
    def test_gamboa_count_close_to_truth(self, rng):
        sig = generate_nsr(30.0, rng)
        peaks = gamboa_segmenter(sig, 300.0)
        expected = 30.0 / 0.83
        assert abs(len(peaks) - expected) <= 3

    def test_pan_tompkins_agrees_with_gamboa(self, rng):
        sig = generate_nsr(30.0, rng)
        g = gamboa_segmenter(sig, 300.0)
        p = pan_tompkins(sig, 300.0)
        assert abs(len(g) - len(p)) <= 2

    def test_peaks_fall_on_r_waves(self, rng):
        sig = generate_nsr(20.0, rng)
        peaks = gamboa_segmenter(sig, 300.0)
        # signal at detected peaks should be near the R amplitude
        assert np.median(sig[peaks]) > 0.6

    def test_peaks_sorted_and_spaced(self, rng):
        sig = generate_af(30.0, rng)
        peaks = gamboa_segmenter(sig, 300.0)
        assert (np.diff(peaks) > 0.2 * 300).all()  # refractory respected

    def test_short_signal_empty(self):
        assert len(gamboa_segmenter(np.zeros(10), 300.0)) == 0
        assert len(pan_tompkins(np.zeros(10), 300.0)) == 0

    def test_flat_signal_empty(self):
        assert len(gamboa_segmenter(np.ones(3000), 300.0)) == 0

    def test_non_1d_rejected(self):
        with pytest.raises(ValueError):
            gamboa_segmenter(np.zeros((10, 10)), 300.0)
        with pytest.raises(ValueError):
            pan_tompkins(np.zeros((10, 10)), 300.0)

    def test_rr_intervals(self):
        rr = rr_intervals(np.array([0, 300, 600]), 300.0)
        np.testing.assert_allclose(rr, [1.0, 1.0])


class TestQrsBandpass:
    """One band-pass design — coefficients and the zero-phase filter's
    initial state — per (fs, band) per process, same bytes as the
    per-call design it replaced."""

    @pytest.mark.parametrize("fs", [300.0, 250.0, 150.0, 40.0, 28.0])
    @pytest.mark.parametrize("high", [15.0, 25.0])
    def test_bytes_equal_fresh_butter(self, fs, high):
        nyq = fs / 2.0
        ref_b, ref_a = sp_signal.butter(
            2, [5.0 / nyq, min(high, nyq * 0.99) / nyq], btype="band"
        )
        b, a, zi = rpeaks._qrs_bandpass(fs, 5.0, high)
        assert b.tobytes() == ref_b.tobytes() and a.tobytes() == ref_a.tobytes()
        assert zi.tobytes() == sp_signal.lfilter_zi(ref_b, ref_a).tobytes()

    def test_designed_once_and_read_only(self):
        b, a, zi = rpeaks._qrs_bandpass(300.0, 5.0, 15.0)
        again = rpeaks._qrs_bandpass(300.0, 5.0, 15.0)
        assert again[0] is b and again[1] is a and again[2] is zi
        for arr in (b, a, zi):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        kernel = rpeaks._box_kernel(45)
        assert rpeaks._box_kernel(45) is kernel
        assert kernel.tobytes() == (np.ones(45) / 45).tobytes()
        with pytest.raises(ValueError):
            kernel[0] = 0.0

    def test_threads_racing_the_first_call_get_equal_arrays(self):
        fs = 311.0  # a rate no other test designs for: the first call is here
        gate = threading.Barrier(8)
        got: list = [None] * 8

        def design(i):
            gate.wait(timeout=10)
            got[i] = rpeaks._qrs_bandpass(fs, 5.0, 15.0)

        threads = [threading.Thread(target=design, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        nyq = fs / 2.0
        ref_b, ref_a = sp_signal.butter(2, [5.0 / nyq, 15.0 / nyq], btype="band")
        ref_zi = sp_signal.lfilter_zi(ref_b, ref_a)
        for b, a, zi in got:
            assert b.tobytes() == ref_b.tobytes() and a.tobytes() == ref_a.tobytes()
            assert zi.tobytes() == ref_zi.tobytes()
            assert not (b.flags.writeable or a.flags.writeable or zi.flags.writeable)

    @pytest.mark.parametrize("detector", [pan_tompkins, gamboa_segmenter])
    @pytest.mark.parametrize("fs", [10.0, 8.0, 10.1])
    def test_band_at_or_above_nyquist_names_fs_and_band(self, detector, fs):
        with pytest.raises(ValueError, match=rf"fs={fs} Hz.*5\.0-.* Hz.*Nyquist"):
            detector(np.sin(np.arange(200) / 3.0), fs)


# -- the detectors as they were before the run-boundary rewrite, kept
# -- verbatim (but for the names and the uncached design) as oracles --


def reference_bandpass(fs, low, high):
    nyq = fs / 2.0
    return sp_signal.butter(2, [low / nyq, min(high, nyq * 0.99) / nyq], btype="band")


def reference_refine(signal, idx, win):
    lo = max(0, idx - win)
    hi = min(len(signal), idx + win + 1)
    return int(lo + np.argmax(signal[lo:hi]))


def reference_dedupe(peaks, refractory, signal):
    if peaks.size == 0:
        return peaks
    peaks = np.unique(peaks)
    kept = [int(peaks[0])]
    for p in peaks[1:]:
        if p - kept[-1] < refractory:
            if signal[p] > signal[kept[-1]]:
                kept[-1] = int(p)
        else:
            kept.append(int(p))
    return np.asarray(kept, dtype=int)


def reference_gamboa_segmenter(signal, fs, tol=0.002):
    signal = np.asarray(signal, dtype=float)
    if signal.ndim != 1:
        raise ValueError("signal must be 1-D")
    if len(signal) < int(0.5 * fs):
        return np.array([], dtype=int)

    b, a = reference_bandpass(fs, 5.0, 25.0)
    filtered = sp_signal.filtfilt(b, a, signal)

    lo, hi = np.quantile(filtered, [tol, 1 - tol])
    if hi - lo <= 1e-9:
        return np.array([], dtype=int)
    norm = (filtered - lo) / (hi - lo)

    smooth_win = max(3, int(0.02 * fs))
    kernel = np.ones(smooth_win) / smooth_win
    smoothed = np.convolve(norm, kernel, mode="same")

    d2 = np.diff(smoothed, n=2)
    energy = np.convolve(d2**2, kernel, mode="same")
    threshold = max(1e-10, 0.3 * float(np.quantile(energy, 0.995)))
    b = np.flatnonzero(energy > threshold)
    if b.size == 0:
        return np.array([], dtype=int)

    refractory = int(0.2 * fs)
    win = int(0.1 * fs)
    peaks = []
    group_start = b[0]
    prev = b[0]
    for idx in b[1:]:
        if idx - prev > refractory:
            peaks.append(reference_refine(signal, (group_start + prev) // 2, win))
            group_start = idx
        prev = idx
    peaks.append(reference_refine(signal, (group_start + prev) // 2, win))
    return reference_dedupe(np.asarray(peaks, dtype=int), refractory, signal)


def reference_pan_tompkins(signal, fs):
    signal = np.asarray(signal, dtype=float)
    if signal.ndim != 1:
        raise ValueError("signal must be 1-D")
    if len(signal) < int(fs):
        return np.array([], dtype=int)

    b, a = reference_bandpass(fs, 5.0, 15.0)
    filtered = sp_signal.filtfilt(b, a, signal)
    deriv = np.gradient(filtered)
    squared = deriv**2
    window = max(1, int(0.15 * fs))
    mwi = np.convolve(squared, np.ones(window) / window, mode="same")

    threshold = 0.35 * mwi.max()
    above = mwi > threshold
    refractory = int(0.2 * fs)
    win = int(0.1 * fs)
    peaks = []
    i = 0
    n = len(mwi)
    while i < n:
        if above[i]:
            j = i
            while j < n and above[j]:
                j += 1
            peaks.append(reference_refine(signal, (i + j) // 2, win))
            i = j + refractory
        else:
            i += 1
    return reference_dedupe(np.asarray(peaks, dtype=int), refractory, signal)


DETECTORS = [
    (pan_tompkins, reference_pan_tompkins),
    (gamboa_segmenter, reference_gamboa_segmenter),
]


def assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def pulse_train(seed):
    """A seeded square-pulse train and its sampling rate: pulse widths
    up to 300 ms and gaps of up to three refractory periods, so runs
    above threshold fall inside, astride and past the refractory skip
    of the run before; about half start within the first samples and
    some end on a pulse that touches the last one."""
    rng = np.random.default_rng(seed)
    fs = float(rng.choice([300.0, 250.0, 150.0, 40.0]))
    n = int(rng.integers(int(fs), int(4 * fs)))
    refractory = int(0.2 * fs)
    x = np.zeros(n)
    pos = int(rng.integers(0, 3 if rng.random() < 0.5 else refractory))
    while pos < n:
        width = int(rng.integers(1, max(2, int(0.3 * fs))))
        x[pos : pos + width] = rng.choice([0.7, 1.0, 1.0, 1.5])
        pos += width + int(rng.integers(1, 3 * refractory))
    if rng.random() < 0.4:
        x[n - int(rng.integers(1, 4)) :] = 1.0
    return x, fs


def scan_corners(x, fs):
    """Which corners of the Pan-Tompkins threshold scan *x* reaches,
    read off the reference front end's mask run by run."""
    b, a = reference_bandpass(fs, 5.0, 15.0)
    window = max(1, int(0.15 * fs))
    squared = np.gradient(sp_signal.filtfilt(b, a, x)) ** 2
    mwi = np.convolve(squared, np.ones(window) / window, mode="same")
    above = (mwi > 0.35 * mwi.max()).tolist()
    corners = set()
    if above[0]:
        corners.add("run starts at index 0")
    if above[-1]:
        corners.add("run touches the last sample")
    pos = resume = 0
    for is_run, group in itertools.groupby(above):
        start, pos = pos, pos + len(list(group))
        if not is_run:
            continue
        if pos <= resume:
            corners.add("two runs inside one refractory window")
            continue
        if start < resume:
            corners.add("refractory skip lands mid-run")
        resume = pos + int(0.2 * fs)
    return corners


class TestDetectorOracles:
    """Both detectors return the bytes of the per-sample loops they
    replaced, and the zero-phase filter the bytes of scipy's."""

    @pytest.mark.parametrize("label", ["N", "AF", "O"])
    @pytest.mark.parametrize("seconds", [1, 1.5, 3, 9, 17.5, 40, 61])
    def test_recordings(self, label, seconds):
        for seed in range(5):
            sig = generate_recording(label, seconds, np.random.default_rng(seed))
            for detector, reference in DETECTORS:
                assert_same_array(detector(sig, 300.0), reference(sig, 300.0))

    @pytest.mark.parametrize(
        "sig",
        [
            np.zeros(900),
            np.ones(3000),
            np.full(900, -2.5),
            np.repeat([0.0, 1.0], 450),
            np.repeat([1.0, 0.0, 1.0], 300),
        ],
        ids=["zeros", "ones", "constant", "step-up", "notch"],
    )
    def test_flat_step_and_constant_signals(self, sig):
        for detector, reference in DETECTORS:
            assert_same_array(detector(sig, 300.0), reference(sig, 300.0))

    def test_pulse_trains_reach_every_corner_of_the_scan(self):
        reached = {}
        for seed in range(600):
            x, fs = pulse_train(seed)
            for corner in scan_corners(x, fs):
                reached[corner] = reached.get(corner, 0) + 1
            for detector, reference in DETECTORS:
                assert_same_array(detector(x, fs), reference(x, fs))
        assert set(reached) == {
            "run starts at index 0",
            "run touches the last sample",
            "refractory skip lands mid-run",
            "two runs inside one refractory window",
        }
        assert min(reached.values()) >= 50, reached

    def test_dedupe_on_duplicate_and_crowded_peaks(self):
        """Two beats' refinement windows never overlap (the refractory
        period is at least twice the window), so duplicate refined
        peaks reach ``_dedupe`` only when called directly."""
        rng = np.random.default_rng(7)
        sig = rng.standard_normal(400)
        sig[::3] = 0.5  # ties: equal heights keep the earlier peak
        assert_same_array(
            rpeaks._dedupe([], 60, sig), reference_dedupe(np.asarray([], dtype=int), 60, sig)
        )
        for _ in range(500):
            peaks = rng.integers(0, 400, size=int(rng.integers(1, 12))).tolist()
            peaks += peaks[: int(rng.integers(0, 3))]  # exact duplicates
            refractory = int(rng.integers(1, 80))
            assert_same_array(
                rpeaks._dedupe(peaks, refractory, sig),
                reference_dedupe(np.asarray(peaks, dtype=int), refractory, sig),
            )

    @pytest.mark.parametrize("fs", [300.0, 250.0, 150.0, 40.0, 28.0])
    @pytest.mark.parametrize("high", [15.0, 25.0])
    def test_zero_phase_is_scipy_filtfilt(self, rng, fs, high):
        b, a = reference_bandpass(fs, 5.0, high)
        backing = rng.standard_normal(2000)
        for x in (backing[:900], backing[::-1], backing[::2], backing[:16]):
            got = rpeaks._zero_phase(x, fs, 5.0, high)
            assert_same_array(got, sp_signal.filtfilt(b, a, x))
        for n in (15, 1):  # scipy's default padlen here is 3 * 5 taps
            with pytest.raises(ValueError) as ours:
                rpeaks._zero_phase(backing[:n], fs, 5.0, high)
            with pytest.raises(ValueError) as scipys:
                sp_signal.filtfilt(b, a, backing[:n])
            assert str(ours.value) == str(scipys.value)

    @pytest.mark.parametrize("detector", [pan_tompkins, gamboa_segmenter])
    def test_signal_not_longer_than_the_pad_is_rejected(self, detector):
        # 15 samples pass both detectors' own minimum at 15 Hz
        with pytest.raises(ValueError, match="greater than padlen, which is 15"):
            detector(np.sin(np.arange(15.0)), 15.0)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_segment_features_equal_with_the_reference_detector(self, monkeypatch, seed):
        cfg = ServeConfig(seed=seed, n_segments=3, patients=3)
        feed = list(iter_feed(cfg))
        for seg_id in range(cfg.n_segments):
            seg = serving.assemble_segment([v for v in feed if v[1] == seg_id])
            got = serving.segment_features(seg, cfg)
            with monkeypatch.context() as m:
                m.setattr(serving, "pan_tompkins", reference_pan_tompkins)
                want = serving.segment_features(seg, cfg)
            assert_same_array(got["x"], want["x"])
            assert got["n_peaks"] == want["n_peaks"] > 0
            assert np.float64(got["hr_bpm"]).tobytes() == np.float64(want["hr_bpm"]).tobytes()


class TestAugmentation:
    def test_shuffle_preserves_length_approximately(self, rng):
        sig = generate_af(30.0, rng)
        peaks = gamboa_segmenter(sig, 300.0)
        out = shuffle_patches(sig, peaks, rng)
        assert len(out) == len(sig)

    def test_shuffle_preserves_sample_multiset(self, rng):
        sig = generate_af(30.0, rng)
        peaks = gamboa_segmenter(sig, 300.0)
        out = shuffle_patches(sig, peaks, rng)
        np.testing.assert_allclose(np.sort(out), np.sort(sig))

    def test_shuffle_changes_order(self, rng):
        sig = generate_af(40.0, rng)
        peaks = gamboa_segmenter(sig, 300.0)
        out = shuffle_patches(sig, peaks, np.random.default_rng(123))
        assert not np.array_equal(out, sig)

    def test_patch_structure(self, rng):
        sig = generate_af(40.0, rng)
        peaks = gamboa_segmenter(sig, 300.0)
        patches, spacers, (head, tail) = segment_patches(sig, peaks)
        n_groups = len(peaks) // 6
        assert len(patches) == n_groups
        assert len(spacers) == n_groups - 1
        total = len(head) + len(tail) + sum(map(len, patches)) + sum(map(len, spacers))
        assert total == len(sig)

    def test_each_patch_contains_six_peaks(self, rng):
        """The paper's invariant: patches are stretches of 6 contiguous
        R peaks (the minimum to detect irregular rhythms)."""
        sig = generate_af(45.0, rng)
        peaks = gamboa_segmenter(sig, 300.0)
        patches, _, (head, _) = segment_patches(sig, peaks)
        offset = len(head)
        for patch in patches:
            inside = [p for p in peaks if offset <= p < offset + len(patch)]
            # spacers between patches shift later offsets; recount from
            # the patch signal itself instead
            offset += len(patch)
        # cheap but meaningful proxy: total peaks in groups match
        assert len(patches) * 6 <= len(peaks)

    def test_too_few_peaks_rejected(self, rng):
        sig = generate_af(10.0, rng)
        peaks = gamboa_segmenter(sig, 300.0)[:8]
        with pytest.raises(ValueError):
            segment_patches(sig, peaks)

    def test_augment_minority_balances(self):
        dsd = generate_dataset(12, 3, seed=4)
        balanced = augment_minority(dsd, seed=5)
        counts = balanced.class_counts()
        assert counts["AF"] == counts["N"] == 12

    def test_augmented_signals_are_new(self):
        dsd = generate_dataset(6, 2, seed=4)
        balanced = augment_minority(dsd, seed=5)
        af = balanced.subset("AF")
        lengths = [len(r.signal) for r in af.records]
        assert len(af) == 6

    def test_augment_missing_label(self):
        dsd = Dataset([Record(signal=np.zeros(100), label="N", fs=300.0)])
        with pytest.raises(ValueError):
            augment_minority(dsd, minority_label="AF")

    def test_augment_already_balanced_noop(self):
        dsd = generate_dataset(3, 3, seed=1)
        out = augment_minority(dsd, seed=1)
        assert len(out) == 6


class TestFeatures:
    def test_zero_pad_to_max(self):
        out = zero_pad([np.ones(5), np.ones(3)])
        assert out.shape == (2, 5)
        np.testing.assert_array_equal(out[1], [1, 1, 1, 0, 0])

    def test_zero_pad_explicit_target(self):
        out = zero_pad([np.ones(4)], target_length=10)
        assert out.shape == (1, 10)

    def test_zero_pad_never_truncates(self):
        with pytest.raises(ValueError):
            zero_pad([np.ones(20)], target_length=10)

    def test_zero_pad_empty(self):
        with pytest.raises(ValueError):
            zero_pad([])

    @pytest.mark.parametrize("step", [1, 2, 7, 16])
    @pytest.mark.parametrize("target", [None, 100, 113])
    def test_zero_pad_step_is_the_strided_full_matrix(self, rng, step, target):
        signals = [rng.standard_normal(n) for n in (100, 1, 16, 33, 97)]
        out = zero_pad(signals, target, step)
        want = zero_pad(signals, target)[:, ::step]
        assert out.shape == want.shape and out.flags.c_contiguous
        assert out.tobytes() == np.ascontiguousarray(want).tobytes()
        with pytest.raises(ValueError):
            zero_pad(signals, 99, step)

    def test_stft_shape_deterministic(self, rng):
        x = rng.standard_normal((3, 3000))
        feats = stft_features(x, fs=300.0, nperseg=128)
        assert feats.shape == (3, stft_features(np.zeros((1, 3000)), nperseg=128).shape[1])

    def test_stft_nperseg_too_long(self):
        with pytest.raises(ValueError):
            stft_features(np.zeros((1, 64)), nperseg=128)

    def test_stft_separates_frequencies(self):
        """Signals of different frequency must differ in STFT space far
        more than same-frequency signals — the property the classifier
        relies on."""
        t = np.arange(3000) / 300.0
        slow1 = np.sin(2 * np.pi * 2 * t)
        slow2 = np.sin(2 * np.pi * 2 * t + 0.5)
        fast = np.sin(2 * np.pi * 8 * t)
        f = stft_features(np.vstack([slow1, slow2, fast]), fs=300.0, nperseg=256)
        d_same = np.linalg.norm(f[0] - f[1])
        d_diff = np.linalg.norm(f[0] - f[2])
        assert d_diff > 3 * d_same

    def test_preprocess_chain(self, rng):
        sigs = [generate_nsr(9.0, rng), generate_nsr(12.0, rng)]
        feats = stft_features(zero_pad(sigs, 3600))
        assert feats.shape[0] == 2
        assert feats.shape[1] == stft_features(np.zeros((1, 3600))).shape[1]

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_property_shuffle_conserves_energy(self, seed):
        rng = np.random.default_rng(seed)
        sig = generate_af(35.0, rng)
        peaks = gamboa_segmenter(sig, 300.0)
        if len(peaks) < 12:
            return
        out = shuffle_patches(sig, peaks, rng)
        assert np.sum(out**2) == pytest.approx(np.sum(sig**2))
