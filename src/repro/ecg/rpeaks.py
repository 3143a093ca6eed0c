"""R-peak detection.

Two detectors:

* :func:`gamboa_segmenter` — the method the paper uses through BioSPPy
  (§III-B.1): quantile-normalised signal, squared second difference,
  threshold, local-maximum refinement.
* :func:`pan_tompkins` — the classic bandpass → derivative → square →
  moving-window-integration pipeline with an adaptive threshold, used
  as a cross-check in tests.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy import signal as sp_signal


@functools.lru_cache(maxsize=16)
def _qrs_bandpass(fs: float, low: float, high: float) -> tuple[np.ndarray, np.ndarray]:
    """Second-order Butterworth band-pass ``(b, a)`` for *low*–*high* Hz
    at sampling rate *fs*, the upper edge capped just below Nyquist.

    The coefficients depend only on the arguments, so they are designed
    once per process and shared by every call of both detectors; the
    arrays are read-only because every caller gets the same pair.
    """
    nyq = fs / 2.0
    top = min(high, nyq * 0.99)
    if not 0.0 < low < top:
        raise ValueError(
            f"fs={fs} Hz is too low for the {low}-{high} Hz QRS band-pass: "
            f"the band must lie below the Nyquist frequency ({nyq} Hz)"
        )
    b, a = sp_signal.butter(2, [low / nyq, top / nyq], btype="band")
    b.flags.writeable = False
    a.flags.writeable = False
    return b, a


def gamboa_segmenter(signal: np.ndarray, fs: float, tol: float = 0.002) -> np.ndarray:
    """R-peak indices à la Gamboa (2008), as implemented in BioSPPy.

    The signal is normalised by its (tol, 1-tol) quantile range, the
    squared second difference is thresholded, and peaks are refined to
    the local maximum of the raw signal within a 100 ms window.

    The 5–25 Hz pre-filter comes from :func:`_qrs_bandpass` (designed
    once per *fs*); ``ValueError`` if *fs* puts the band at or above
    Nyquist.
    """
    signal = np.asarray(signal, dtype=float)
    if signal.ndim != 1:
        raise ValueError("signal must be 1-D")
    if len(signal) < int(0.5 * fs):
        return np.array([], dtype=int)

    # band-limit to the QRS band first (BioSPPy's segmenters run on
    # filtered input); this is what keeps the detector usable on noisy
    # wearable-grade signals
    b, a = _qrs_bandpass(fs, 5.0, 25.0)
    filtered = sp_signal.filtfilt(b, a, signal)

    lo, hi = np.quantile(filtered, [tol, 1 - tol])
    if hi - lo <= 1e-9:  # flat (or numerically flat) signal
        return np.array([], dtype=int)
    norm = (filtered - lo) / (hi - lo)

    # light smoothing so residual noise does not dominate the second
    # difference at 300 Hz
    smooth_win = max(3, int(0.02 * fs))
    kernel = np.ones(smooth_win) / smooth_win
    smoothed = np.convolve(norm, kernel, mode="same")

    d2 = np.diff(smoothed, n=2)
    energy = np.convolve(d2**2, kernel, mode="same")
    # adaptive threshold: a fraction of a high quantile of the slope
    # energy (QRS complexes dominate it after smoothing)
    threshold = max(1e-10, 0.3 * float(np.quantile(energy, 0.995)))
    b = np.flatnonzero(energy > threshold)
    if b.size == 0:
        return np.array([], dtype=int)

    # group candidate indices separated by < 200 ms into single beats
    refractory = int(0.2 * fs)
    win = int(0.1 * fs)
    peaks: list[int] = []
    group_start = b[0]
    prev = b[0]
    for idx in b[1:]:
        if idx - prev > refractory:
            peaks.append(_refine(signal, (group_start + prev) // 2, win))
            group_start = idx
        prev = idx
    peaks.append(_refine(signal, (group_start + prev) // 2, win))
    return _dedupe(np.asarray(peaks, dtype=int), refractory, signal)


def pan_tompkins(signal: np.ndarray, fs: float) -> np.ndarray:
    """Pan–Tompkins (1985) R-peak detection.

    Band-pass (5–15 Hz, from :func:`_qrs_bandpass`, designed once per
    *fs*) → derivative → square → 150 ms moving-window integration →
    threshold at 35 % of the maximum, with a 200 ms refractory period;
    ``ValueError`` if *fs* puts the band at or above Nyquist.
    """
    signal = np.asarray(signal, dtype=float)
    if signal.ndim != 1:
        raise ValueError("signal must be 1-D")
    if len(signal) < int(fs):
        return np.array([], dtype=int)

    b, a = _qrs_bandpass(fs, 5.0, 15.0)
    filtered = sp_signal.filtfilt(b, a, signal)
    deriv = np.gradient(filtered)
    squared = deriv**2
    window = max(1, int(0.15 * fs))
    mwi = np.convolve(squared, np.ones(window) / window, mode="same")

    threshold = 0.35 * mwi.max()
    above = mwi > threshold
    refractory = int(0.2 * fs)
    win = int(0.1 * fs)
    peaks: list[int] = []
    i = 0
    n = len(mwi)
    while i < n:
        if above[i]:
            j = i
            while j < n and above[j]:
                j += 1
            peaks.append(_refine(signal, (i + j) // 2, win))
            i = j + refractory
        else:
            i += 1
    return _dedupe(np.asarray(peaks, dtype=int), refractory, signal)


def _refine(signal: np.ndarray, idx: int, win: int) -> int:
    """Snap a candidate to the local maximum of the raw signal."""
    lo = max(0, idx - win)
    hi = min(len(signal), idx + win + 1)
    return int(lo + np.argmax(signal[lo:hi]))


def _dedupe(peaks: np.ndarray, refractory: int, signal: np.ndarray) -> np.ndarray:
    """Merge peaks closer than the refractory period (keep the taller)."""
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


def rr_intervals(peaks: np.ndarray, fs: float) -> np.ndarray:
    """RR intervals in seconds."""
    return np.diff(np.asarray(peaks)) / fs
