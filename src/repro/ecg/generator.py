"""Synthetic single-lead ECG generation — the PhysioNet substitute.

The CinC 2017 data cannot be downloaded offline, so we synthesise
recordings that preserve the physiology the paper's pipeline depends
on (§II):

* **Normal sinus rhythm (NSR)**: regular RR intervals with mild heart-
  rate variability and full P-QRS-T morphology (each wave a Gaussian
  bump at its canonical phase offset within the beat).
* **Atrial fibrillation (AF)**: the three diagnostic features the paper
  lists — absent P waves, fibrillatory f-waves (a 4–9 Hz oscillation
  replacing the P wave), and irregular heart rate (high-variance RR
  intervals).

Recordings are sampled at 300 Hz with durations of 9–61 s, matching
the AliveCor device data described in §III-A.
"""

from __future__ import annotations

import dataclasses

import numpy as np

FS_DEFAULT = 300.0


@dataclasses.dataclass(frozen=True)
class WaveSpec:
    """One Gaussian component of the beat: amplitude (mV), center
    offset (fraction of the RR interval, relative to the R peak) and
    width (seconds)."""

    amplitude: float
    offset: float
    width: float


#: Canonical beat morphology (loosely after ECGSYN's defaults).
NSR_WAVES: dict[str, WaveSpec] = {
    "P": WaveSpec(amplitude=0.15, offset=-0.22, width=0.025),
    "Q": WaveSpec(amplitude=-0.12, offset=-0.03, width=0.008),
    "R": WaveSpec(amplitude=1.0, offset=0.0, width=0.011),
    "S": WaveSpec(amplitude=-0.25, offset=0.035, width=0.009),
    "T": WaveSpec(amplitude=0.3, offset=0.30, width=0.055),
}

#: Ventricular-ectopic-like beat: wide, lower R, no P, deep S.
ECTOPIC_WAVES: dict[str, WaveSpec] = {
    "R": WaveSpec(amplitude=0.7, offset=0.0, width=0.033),
    "S": WaveSpec(amplitude=-0.45, offset=0.055, width=0.03),
    "T": WaveSpec(amplitude=-0.2, offset=0.30, width=0.06),
}


@dataclasses.dataclass(frozen=True)
class ECGConfig:
    """Generation parameters."""

    fs: float = FS_DEFAULT
    # NSR rate: ~72 bpm with mild variability
    nsr_rr_mean: float = 0.83
    nsr_rr_std: float = 0.04
    # AF: faster, highly irregular ventricular response
    af_rr_mean: float = 0.65
    af_rr_std: float = 0.18
    af_rr_min: float = 0.35
    # f-wave band (paper: fluctuating waveform instead of the P wave)
    fwave_freq_low: float = 4.0
    fwave_freq_high: float = 9.0
    fwave_amplitude: float = 0.08
    noise_std: float = 0.03
    baseline_amplitude: float = 0.05
    baseline_freq: float = 0.25
    #: per-recording multiplicative gain spread (log-normal sigma).
    #: Wearable/portable ECG hardware has substantial inter-recording
    #: gain variation; 0 disables it.
    gain_std: float = 0.0
    #: probability of a burst of EMG (muscle) artifact per recording
    muscle_artifact_prob: float = 0.0
    muscle_artifact_amplitude: float = 0.15
    #: probability of an electrode-motion spike per recording
    motion_spike_prob: float = 0.0
    motion_spike_amplitude: float = 1.5


#: Half-width, in wave widths, of the index window a wave is evaluated
#: on.  ``exp(-z**2 / 2)`` is exactly ``0.0`` in float64 once
#: ``z**2 / 2 > 1075 * ln 2`` (|z| > 38.61), so beyond 39 widths a wave
#: contributes ``amplitude * 0.0`` and adding it changes no bit.
_WAVE_SUPPORT = 39.0


def _beat(t: np.ndarray, r_time: float, rr: float, waves: dict[str, WaveSpec]) -> np.ndarray:
    """Superpose one beat's Gaussian waves centred around *r_time*.

    *t* must be ascending.  Each wave is evaluated only where
    ``|t - center| <= 39 * width`` (clipped to the array): outside that
    window the Gaussian underflows to exactly zero, so the result is
    bit-for-bit the full-length sum at a cost proportional to the
    waves' support, not to ``len(t)``.
    """
    out = np.zeros_like(t)
    for spec in waves.values():
        center = r_time + spec.offset * rr
        reach = _WAVE_SUPPORT * spec.width
        lo = t.searchsorted(center - reach, side="left")
        hi = t.searchsorted(center + reach, side="right")
        out[lo:hi] += spec.amplitude * np.exp(-0.5 * ((t[lo:hi] - center) / spec.width) ** 2)
    return out


def _rr_series(duration: float, rng: np.random.Generator, cfg: ECGConfig, af: bool) -> np.ndarray:
    """Cumulative R-peak times covering [0, duration]."""
    times = []
    t = rng.uniform(0.1, 0.5)
    while t < duration:
        times.append(t)
        if af:
            rr = max(cfg.af_rr_min, rng.normal(cfg.af_rr_mean, cfg.af_rr_std))
        else:
            rr = max(0.4, rng.normal(cfg.nsr_rr_mean, cfg.nsr_rr_std))
        t += rr
    return np.asarray(times)


def generate_recording(
    label: str,
    duration: float,
    rng: np.random.Generator,
    cfg: ECGConfig | None = None,
) -> np.ndarray:
    """One synthetic recording.

    *label* is ``'N'`` (normal sinus rhythm), ``'AF'`` (atrial
    fibrillation), or ``'O'`` (other rhythm — premature-beat-like
    morphology changes with P waves present; the CinC class the paper
    excludes but the dataset contains).
    """
    cfg = cfg or ECGConfig()
    if label not in ("N", "AF", "O"):
        raise ValueError(f"label must be 'N', 'AF' or 'O', got {label!r}")
    if duration <= 0:
        raise ValueError("duration must be positive")
    n = int(round(duration * cfg.fs))
    t = np.arange(n) / cfg.fs
    sig = np.zeros(n)

    af = label == "AF"
    r_times = _rr_series(duration, rng, cfg, af=af)
    waves = dict(NSR_WAVES)
    if af:
        waves.pop("P")  # absent P wave
    rr_prev = cfg.af_rr_mean if af else cfg.nsr_rr_mean
    for i, rt in enumerate(r_times):
        rr = (
            (r_times[i + 1] - rt)
            if i + 1 < len(r_times)
            else rr_prev
        )
        beat_waves = waves
        if label == "O" and rng.uniform() < 0.25:
            beat_waves = ECTOPIC_WAVES
        sig += _beat(t, rt, min(rr, 1.2), beat_waves)
        rr_prev = rr

    if af:
        # fibrillatory waves: frequency-modulated oscillation in the
        # 4-9 Hz band with drifting amplitude
        f0 = rng.uniform(cfg.fwave_freq_low, cfg.fwave_freq_high)
        drift = 1.0 + 0.3 * np.sin(2 * np.pi * rng.uniform(0.05, 0.2) * t + rng.uniform(0, 2 * np.pi))
        phase_noise = np.cumsum(rng.normal(0, 0.01, n))
        sig += cfg.fwave_amplitude * drift * np.sin(2 * np.pi * f0 * t + phase_noise)

    # measurement artefacts common to both classes
    sig += cfg.baseline_amplitude * np.sin(
        2 * np.pi * cfg.baseline_freq * t + rng.uniform(0, 2 * np.pi)
    )
    sig += rng.normal(0, cfg.noise_std, n)
    if cfg.muscle_artifact_prob > 0 and rng.uniform() < cfg.muscle_artifact_prob:
        # EMG burst: band-limited noise over a 1-3 s window
        start = int(rng.uniform(0, max(n - cfg.fs, 1)))
        length = int(rng.uniform(1.0, 3.0) * cfg.fs)
        stop = min(start + length, n)
        burst = rng.normal(0, cfg.muscle_artifact_amplitude, stop - start)
        window = np.hanning(stop - start)
        sig[start:stop] += burst * window
    if cfg.motion_spike_prob > 0 and rng.uniform() < cfg.motion_spike_prob:
        # electrode motion: a sharp unipolar deflection
        center = int(rng.uniform(0.05, 0.95) * n)
        width = int(0.05 * cfg.fs)
        lo, hi = max(0, center - width), min(n, center + width)
        sig[lo:hi] += cfg.motion_spike_amplitude * np.hanning(hi - lo)
    if cfg.gain_std > 0:
        sig *= rng.lognormal(mean=0.0, sigma=cfg.gain_std)
    return sig
