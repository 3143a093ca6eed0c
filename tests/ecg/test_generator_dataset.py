"""Synthetic ECG generator and dataset tests: the physiology the
paper's pipeline depends on must actually be present in the signals."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import signal as sp_signal

from repro.ecg import (
    ECGConfig,
    PAPER_N_AF,
    PAPER_N_NORMAL,
    Dataset,
    Record,
    gamboa_segmenter,
    generate_dataset,
    generate_recording,
    load_cinc2017_like,
    rr_intervals,
)
from repro.ecg import generator
from tests.ecg.conftest import generate_af, generate_nsr


class TestGenerator:
    def test_sampling_rate_and_length(self, rng):
        sig = generate_nsr(10.0, rng)
        assert len(sig) == 3000  # 10 s at 300 Hz

    def test_invalid_inputs(self, rng):
        with pytest.raises(ValueError):
            generate_recording("X", 10.0, rng)
        with pytest.raises(ValueError):
            generate_recording("N", -1.0, rng)

    def test_r_peaks_dominate_amplitude(self, rng):
        sig = generate_nsr(15.0, rng)
        assert sig.max() > 0.7  # R waves ~1 mV

    def test_nsr_rr_regular_af_rr_irregular(self, rng):
        """The third diagnostic AF feature: heart-rate irregularity."""
        nsr = generate_nsr(40.0, rng)
        af = generate_af(40.0, rng)
        rr_n = rr_intervals(gamboa_segmenter(nsr, 300.0), 300.0)
        rr_a = rr_intervals(gamboa_segmenter(af, 300.0), 300.0)
        assert rr_n.std() < 0.08
        assert rr_a.std() > 2 * rr_n.std()

    def test_af_has_fwave_band_power(self, rng):
        """The second AF feature: f-waves in the 4-9 Hz band.  Compare
        the band power in beat-free segments via Welch."""
        cfg = ECGConfig(noise_std=0.01)
        nsr = generate_nsr(40.0, rng, cfg)
        af = generate_af(40.0, rng, cfg)
        def band_power(sig):
            f, p = sp_signal.welch(sig, fs=300.0, nperseg=1024)
            return p[(f >= 4) & (f <= 9)].sum()
        assert band_power(af) > band_power(nsr)

    def test_nsr_has_p_waves_af_does_not(self, rng):
        """The first AF feature: absent P wave.  Check the mean signal
        level in the P-wave window (~180 ms before each R peak)."""
        cfg = ECGConfig(noise_std=0.005, baseline_amplitude=0.0)
        rng1 = np.random.default_rng(1)
        rng2 = np.random.default_rng(2)
        fs = 300.0

        def p_window_mean(sig):
            peaks = gamboa_segmenter(sig, fs)
            vals = []
            for p in peaks:
                lo = p - int(0.24 * fs)
                hi = p - int(0.12 * fs)
                if lo >= 0:
                    vals.append(sig[lo:hi].max())
            return np.median(vals)

        nsr = generate_nsr(30.0, rng1, cfg)
        af = generate_af(30.0, rng2, cfg)
        assert p_window_mean(nsr) > p_window_mean(af) + 0.02

    def test_deterministic_given_rng_seed(self):
        a = generate_nsr(10.0, np.random.default_rng(5))
        b = generate_nsr(10.0, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)


class TestDataset:
    def test_paper_scale_counts(self):
        dsd = load_cinc2017_like(scale=0.01, seed=0)
        counts = dsd.class_counts()
        assert counts["N"] == round(PAPER_N_NORMAL * 0.01)
        assert counts["AF"] == round(PAPER_N_AF * 0.01)

    def test_imbalance_ratio_preserved(self):
        dsd = load_cinc2017_like(scale=0.02, seed=0)
        counts = dsd.class_counts()
        ratio = counts["N"] / counts["AF"]
        assert ratio == pytest.approx(PAPER_N_NORMAL / PAPER_N_AF, rel=0.1)

    def test_duration_range(self):
        dsd = load_cinc2017_like(scale=0.005, seed=3)
        for r in dsd.records:
            assert 9.0 <= r.duration <= 61.0 + 1e-6

    def test_max_length_bounded_by_paper(self):
        dsd = load_cinc2017_like(scale=0.005, seed=3)
        assert dsd.max_length() <= 18300

    def test_generate_dataset_explicit_counts(self):
        dsd = generate_dataset(5, 3, seed=1)
        assert dsd.class_counts() == {"N": 5, "AF": 3}
        assert len(dsd) == 8

    def test_records_shuffled(self):
        dsd = generate_dataset(10, 10, seed=1)
        labels = dsd.labels
        assert not (labels[:10] == "N").all()  # not grouped by class

    def test_subset_and_shuffled(self):
        dsd = generate_dataset(6, 4, seed=2)
        assert len(dsd.subset("AF")) == 4
        reshuffled = dsd.shuffled(seed=9)
        assert sorted(reshuffled.labels) == sorted(dsd.labels)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            load_cinc2017_like(scale=0)
        with pytest.raises(ValueError):
            generate_dataset(-1, 2)
        with pytest.raises(ValueError):
            generate_dataset(2, 2, duration_range=(5.0, 1.0))

    def test_record_properties(self, rng):
        r = Record(signal=np.zeros(600), label="N", fs=300.0)
        assert r.duration == 2.0


def _beat_full_length(t, r_time, rr, waves):
    """The full-length beat synthesis the windowed ``_beat`` replaced:
    every wave evaluated over the whole of *t*.  Kept here as the
    reference the shipped one must equal bit for bit."""
    out = np.zeros_like(t)
    for spec in waves.values():
        center = r_time + spec.offset * rr
        out += spec.amplitude * np.exp(-0.5 * ((t - center) / spec.width) ** 2)
    return out


class TestWindowedBeat:
    """Waves are synthesised only where they are non-zero; the bytes do
    not change."""

    WAVE_SETS = {
        "nsr": generator.NSR_WAVES,
        "af": {k: v for k, v in generator.NSR_WAVES.items() if k != "P"},
        "ectopic": generator.ECTOPIC_WAVES,
        "negated": {
            k: generator.WaveSpec(-v.amplitude, v.offset, v.width)
            for k, v in generator.NSR_WAVES.items()
        },
    }

    def test_support_bound_is_the_exact_underflow(self):
        """Beyond ``_WAVE_SUPPORT`` widths the Gaussian is exactly 0.0
        in float64, with margin for the rounding of ``(t - c) / w``."""
        z = generator._WAVE_SUPPORT
        assert np.exp(-0.5 * (z * (1 - 1e-3)) ** 2) == 0.0
        assert np.exp(-0.5 * 38.0**2) > 0.0  # the bound is not slack by much

    @pytest.mark.parametrize("n", [1, 2, 900, 18300])
    @pytest.mark.parametrize("waves", sorted(WAVE_SETS))
    def test_beat_bytes_equal_full_length_reference(self, n, waves):
        t = np.arange(n) / 300.0
        end = t[-1]
        centres = [
            -5.0, -0.5, -1e-9, 0.0, 1 / 300.0, 0.4 * end, 0.5 * end + 1e-4,
            end - 1 / 300.0, end, end + 1e-9, end + 0.5, end + 5.0,
        ]
        for r_time in centres:
            for rr in (0.35, 0.83, 1.2):
                got = generator._beat(t, r_time, rr, self.WAVE_SETS[waves])
                ref = _beat_full_length(t, r_time, rr, self.WAVE_SETS[waves])
                assert got.tobytes() == ref.tobytes(), (r_time, rr)

    @pytest.mark.parametrize("label", ["N", "AF", "O"])
    @pytest.mark.parametrize("duration", [3.0, 9.0, 61.0])
    def test_recording_bytes_equal_with_reference_beat(self, label, duration, monkeypatch):
        shipped = [
            generate_recording(label, duration, np.random.default_rng(seed))
            for seed in range(4)
        ]
        monkeypatch.setattr(generator, "_beat", _beat_full_length)
        for seed, sig in enumerate(shipped):
            ref = generate_recording(label, duration, np.random.default_rng(seed))
            assert sig.tobytes() == ref.tobytes(), seed

    def test_artifact_config_bytes_equal_with_reference_beat(self, monkeypatch):
        cfg = ECGConfig(
            gain_std=0.3, muscle_artifact_prob=1.0, motion_spike_prob=1.0, fs=250.0
        )
        shipped = generate_recording("O", 20.0, np.random.default_rng(5), cfg)
        monkeypatch.setattr(generator, "_beat", _beat_full_length)
        ref = generate_recording("O", 20.0, np.random.default_rng(5), cfg)
        assert shipped.tobytes() == ref.tobytes()
