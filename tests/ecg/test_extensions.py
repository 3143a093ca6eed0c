"""ECG extensions: Other-rhythm class, artifacts, dataset persistence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ecg import (
    ECGConfig,
    gamboa_segmenter,
    generate_dataset,
    generate_recording,
    load_npz,
    rr_intervals,
    save_npz,
)
from tests.ecg.conftest import generate_other


class TestOtherRhythm:
    def test_other_rhythm_generates(self, rng):
        sig = generate_other(15.0, rng)
        assert len(sig) == 15 * 300

    def test_other_keeps_regular_base_rhythm(self, rng):
        """'O' is ectopic morphology on a sinus base, not AF: the
        detector may miss the low-amplitude ectopic beats (doubling an
        occasional RR), but the *typical* RR stays at the sinus period."""
        sig = generate_other(40.0, rng)
        peaks = gamboa_segmenter(sig, 300.0)
        rr = rr_intervals(peaks, 300.0)
        assert 0.7 < np.median(rr) < 1.0

    def test_dataset_with_other_class(self):
        dsd = generate_dataset(4, 3, n_other=5, seed=1)
        counts = dsd.class_counts()
        assert counts == {"N": 4, "AF": 3, "O": 5}

    def test_bad_label_rejected(self, rng):
        with pytest.raises(ValueError):
            generate_recording("X", 10.0, rng)


class TestArtifacts:
    def test_muscle_artifact_raises_hf_energy(self):
        cfg_clean = ECGConfig(noise_std=0.01)
        cfg_emg = ECGConfig(noise_std=0.01, muscle_artifact_prob=1.0, muscle_artifact_amplitude=0.4)
        clean = generate_recording("N", 20.0, np.random.default_rng(3), cfg_clean)
        noisy = generate_recording("N", 20.0, np.random.default_rng(3), cfg_emg)
        assert noisy.std() > clean.std()

    def test_motion_spike_adds_extreme(self):
        cfg = ECGConfig(noise_std=0.01, motion_spike_prob=1.0, motion_spike_amplitude=3.0)
        sig = generate_recording("N", 20.0, np.random.default_rng(4), cfg)
        assert sig.max() > 2.0

    def test_probability_zero_means_disabled(self):
        cfg = ECGConfig(noise_std=0.01)
        a = generate_recording("N", 10.0, np.random.default_rng(5), cfg)
        b = generate_recording("N", 10.0, np.random.default_rng(5), cfg)
        np.testing.assert_array_equal(a, b)

    def test_gain_variation_changes_scale(self):
        cfg = ECGConfig(gain_std=1.0)
        rng = np.random.default_rng(6)
        maxima = [generate_recording("N", 10.0, rng, cfg).max() for _ in range(8)]
        assert max(maxima) > 2 * min(maxima)


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        dsd = generate_dataset(3, 2, n_other=1, seed=7)
        path = tmp_path / "ecg.npz"
        save_npz(dsd, path)
        back = load_npz(path)
        assert back.class_counts() == dsd.class_counts()
        assert len(back) == len(dsd)
        for a, b in zip(dsd.records, back.records):
            np.testing.assert_array_equal(a.signal, b.signal)
            assert a.label == b.label
            assert a.fs == b.fs

    def test_roundtrip_preserves_variable_lengths(self, tmp_path):
        dsd = generate_dataset(4, 0, seed=8)
        lengths = [len(r.signal) for r in dsd.records]
        path = tmp_path / "ecg.npz"
        save_npz(dsd, path)
        back = load_npz(path)
        assert [len(r.signal) for r in back.records] == lengths
