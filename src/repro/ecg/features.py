"""Zero-padding and STFT feature extraction (paper §III-B.2/3).

The recordings have different lengths (9–61 s), so they are zero-padded
to the length of the longest signal (18300 samples in the paper's
data).  The Short Time Fourier Transform then maps each padded signal
into the time-frequency domain; the spectrogram magnitudes are
flattened into a 1-D feature vector (18810 features in the paper)
which feeds the PCA + classifiers.
"""

from __future__ import annotations

import numpy as np
from scipy import signal as sp_signal

#: The paper's maximum signal length (61 s at 300 Hz).
PAPER_MAX_LENGTH = 18300


def zero_pad(
    signals: list[np.ndarray], target_length: int | None = None, step: int = 1
) -> np.ndarray:
    """Right-pad every signal with zeros to a common length.

    Without *target_length*, the longest signal's length is used, as in
    the paper.  Signals longer than the target are rejected (padding
    never truncates data silently).  *step* > 1 keeps every *step*-th
    sample of the padded signals — ``zero_pad(s, n)[:, ::step]`` without
    building the full-rate matrix first.
    """
    if not signals:
        raise ValueError("no signals to pad")
    max_len = max(len(s) for s in signals)
    target = target_length if target_length is not None else max_len
    if max_len > target:
        raise ValueError(f"signal of length {max_len} exceeds target {target}")
    out = np.zeros((len(signals), -(-target // step)))
    for i, s in enumerate(signals):
        kept = s[::step]
        out[i, : len(kept)] = kept
    return out


def stft_features(
    padded: np.ndarray,
    fs: float = 300.0,
    nperseg: int = 128,
    noverlap: int | None = None,
) -> np.ndarray:
    """Flattened STFT magnitude spectrogram per signal.

    Uses :func:`scipy.signal.spectrogram` (the paper's tool): each
    column of the spectrogram estimates the short-term, time-localised
    frequency components; the 2-D array is flattened to 1-D for the
    downstream PCA.
    """
    padded = np.atleast_2d(padded)
    if nperseg > padded.shape[1]:
        raise ValueError(f"nperseg={nperseg} longer than signals ({padded.shape[1]})")
    _, _, spec = sp_signal.spectrogram(
        padded, fs=fs, nperseg=nperseg, noverlap=noverlap, axis=1
    )
    # spec: (n_signals, n_freqs, n_times) -> flatten per signal
    return spec.reshape(len(padded), -1)
