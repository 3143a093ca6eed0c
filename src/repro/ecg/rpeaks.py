"""R-peak detection.

Two detectors:

* :func:`gamboa_segmenter` — the method the paper uses through BioSPPy
  (§III-B.1): quantile-normalised signal, squared second difference,
  threshold, local-maximum refinement.
* :func:`pan_tompkins` — the classic bandpass → derivative → square →
  moving-window-integration pipeline with an adaptive threshold, used
  as a cross-check in tests and as the per-segment detector of the
  serving stream.

Both share one front end, written so that a call costs its arithmetic:
everything that depends only on the sampling rate — band-pass
coefficients, the filter's steady-state initial condition, the
moving-average kernels — is designed once per process
(:func:`_qrs_bandpass`, :func:`_box_kernel`), the zero-phase filter
(:func:`_zero_phase`) is scipy's ``filtfilt`` without its per-call
design and validation, and the threshold scans visit runs of samples,
not samples.  Peaks are byte-identical to the per-sample loops these
replaced; those loops live on as the oracles of
``tests/ecg/test_rpeaks_augment_features.py``.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy import signal as sp_signal


@functools.lru_cache(maxsize=16)
def _qrs_bandpass(
    fs: float, low: float, high: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Second-order Butterworth band-pass ``(b, a, zi)`` for *low*–*high*
    Hz at sampling rate *fs*, the upper edge capped just below Nyquist;
    ``zi`` is ``lfilter_zi(b, a)``, the state of the filter's unit-step
    steady state that :func:`_zero_phase` scales by an end sample.

    All three depend only on the arguments, so they are designed once
    per process and shared by every call of both detectors; the arrays
    are read-only because every caller gets the same triple.
    """
    nyq = fs / 2.0
    top = min(high, nyq * 0.99)
    if not 0.0 < low < top:
        raise ValueError(
            f"fs={fs} Hz is too low for the {low}-{high} Hz QRS band-pass: "
            f"the band must lie below the Nyquist frequency ({nyq} Hz)"
        )
    b, a = sp_signal.butter(2, [low / nyq, top / nyq], btype="band")
    zi = sp_signal.lfilter_zi(b, a)
    for arr in (b, a, zi):
        arr.flags.writeable = False
    return b, a, zi


@functools.lru_cache(maxsize=16)
def _box_kernel(n: int) -> np.ndarray:
    """The *n*-sample moving-average kernel (read-only, built once)."""
    kernel = np.ones(n) / n
    kernel.flags.writeable = False
    return kernel


def _zero_phase(x: np.ndarray, fs: float, low: float, high: float) -> np.ndarray:
    """*x* through the *low*–*high* Hz band-pass forward and backward:
    ``scipy.signal.filtfilt(b, a, x)`` to the byte, for 1-D float *x*.

    This is scipy's default ``method="pad"`` written out — odd extension
    by ``3 * max(len(a), len(b))`` samples at each end, ``lfilter``
    forward from ``zi * ext[0]``, ``lfilter`` over the reversed output
    from ``zi * y[-1]``, reversed again and trimmed — minus what
    ``filtfilt`` redoes per call: solving ``lfilter_zi(b, a)`` and
    validating its padding options.  Like scipy's, the result is a
    reversed view, and a signal not longer than the pad is a
    ``ValueError``.
    """
    b, a, zi = _qrs_bandpass(fs, low, high)
    edge = 3 * max(len(a), len(b))
    if len(x) <= edge:
        raise ValueError(
            "The length of the input vector x must be greater than padlen, "
            f"which is {edge}."
        )
    ext = np.concatenate(
        (2 * x[0] - x[edge:0:-1], x, 2 * x[-1] - x[-2 : -(edge + 2) : -1])
    )
    y, _ = sp_signal.lfilter(b, a, ext, zi=zi * ext[0])
    y, _ = sp_signal.lfilter(b, a, y[::-1], zi=zi * y[-1])
    return y[::-1][edge:-edge]


def gamboa_segmenter(signal: np.ndarray, fs: float, tol: float = 0.002) -> np.ndarray:
    """R-peak indices à la Gamboa (2008), as implemented in BioSPPy.

    The signal is normalised by its (tol, 1-tol) quantile range, the
    squared second difference is thresholded, candidates closer than
    200 ms are grouped into one beat, and each beat is refined to the
    local maximum of the raw signal within a 100 ms window.

    The 5–25 Hz pre-filter is :func:`_zero_phase` (designed once per
    *fs*); ``ValueError`` if *fs* puts the band at or above Nyquist or
    the signal is not longer than the filter's 15-sample pad.
    """
    signal = np.asarray(signal, dtype=float)
    if signal.ndim != 1:
        raise ValueError("signal must be 1-D")
    if len(signal) < int(0.5 * fs):
        return np.array([], dtype=int)

    # band-limit to the QRS band first (BioSPPy's segmenters run on
    # filtered input); this is what keeps the detector usable on noisy
    # wearable-grade signals
    filtered = _zero_phase(signal, fs, 5.0, 25.0)

    lo, hi = np.quantile(filtered, [tol, 1 - tol])
    if hi - lo <= 1e-9:  # flat (or numerically flat) signal
        return np.array([], dtype=int)
    norm = (filtered - lo) / (hi - lo)

    # light smoothing so residual noise does not dominate the second
    # difference at 300 Hz
    kernel = _box_kernel(max(3, int(0.02 * fs)))
    smoothed = np.convolve(norm, kernel, mode="same")

    d2 = np.diff(smoothed, n=2)
    energy = np.convolve(d2**2, kernel, mode="same")
    # adaptive threshold: a fraction of a high quantile of the slope
    # energy (QRS complexes dominate it after smoothing)
    threshold = max(1e-10, 0.3 * float(np.quantile(energy, 0.995)))
    candidates = np.flatnonzero(energy > threshold)
    if candidates.size == 0:
        return np.array([], dtype=int)

    # a gap of more than 200 ms between neighbouring candidates ends one
    # beat's group and starts the next; a beat sits mid-group
    refractory = int(0.2 * fs)
    win = int(0.1 * fs)
    gaps = np.flatnonzero(np.diff(candidates) > refractory)
    firsts = candidates[np.concatenate(([0], gaps + 1))]
    lasts = candidates[np.concatenate((gaps, [-1]))]
    centres = ((firsts + lasts) // 2).tolist()
    return _dedupe([_refine(signal, c, win) for c in centres], refractory, signal)


def pan_tompkins(signal: np.ndarray, fs: float) -> np.ndarray:
    """Pan–Tompkins (1985) R-peak detection.

    Band-pass (5–15 Hz, :func:`_zero_phase`, designed once per *fs*) →
    central-difference derivative → square → 150 ms moving-window
    integration → threshold at 35 % of the maximum, with a 200 ms
    refractory period after each run above threshold; ``ValueError`` if
    *fs* puts the band at or above Nyquist or the signal is not longer
    than the filter's 15-sample pad.
    """
    signal = np.asarray(signal, dtype=float)
    if signal.ndim != 1:
        raise ValueError("signal must be 1-D")
    if len(signal) < int(fs):
        return np.array([], dtype=int)

    filtered = _zero_phase(signal, fs, 5.0, 15.0)
    # np.gradient at unit spacing: central differences, one-sided ends
    deriv = np.empty_like(filtered)
    deriv[1:-1] = (filtered[2:] - filtered[:-2]) / 2.0
    deriv[0] = filtered[1] - filtered[0]
    deriv[-1] = filtered[-1] - filtered[-2]
    mwi = np.convolve(deriv**2, _box_kernel(max(1, int(0.15 * fs))), mode="same")

    above = mwi > 0.35 * mwi.max()
    # runs of samples above threshold, as [start, end) pairs: every
    # index where `above` flips, plus the two ends when a run touches
    # them
    flips = (np.flatnonzero(above[1:] != above[:-1]) + 1).tolist()
    if above[0]:
        flips.insert(0, 0)
    if above[-1]:
        flips.append(len(above))
    refractory = int(0.2 * fs)
    win = int(0.1 * fs)
    peaks: list[int] = []
    resume = 0  # first sample past the last beat's refractory period
    for start, end in zip(flips[::2], flips[1::2]):
        if end <= resume:
            continue  # the whole run is refractory
        # a run the refractory period ends inside counts from there
        peaks.append(_refine(signal, (max(start, resume) + end) // 2, win))
        resume = end + refractory
    return _dedupe(peaks, refractory, signal)


def _refine(signal: np.ndarray, idx: int, win: int) -> int:
    """Snap a candidate to the local maximum of the raw signal."""
    lo = max(0, idx - win)
    hi = min(len(signal), idx + win + 1)
    return int(lo + np.argmax(signal[lo:hi]))


def _dedupe(peaks: list[int], refractory: int, signal: np.ndarray) -> np.ndarray:
    """Merge peaks closer than the refractory period (keep the taller)."""
    kept: list[int] = []
    for p in sorted(set(peaks)):
        if kept and p - kept[-1] < refractory:
            if signal[p] > signal[kept[-1]]:
                kept[-1] = p
        else:
            kept.append(p)
    return np.asarray(kept, dtype=int)


def rr_intervals(peaks: np.ndarray, fs: float) -> np.ndarray:
    """RR intervals in seconds."""
    return np.diff(np.asarray(peaks)) / fs
