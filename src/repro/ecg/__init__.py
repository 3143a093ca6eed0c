"""Synthetic ECG substrate: generation, R-peak detection, augmentation
and STFT feature extraction (the PhysioNet + BioSPPy substitute)."""

from repro.ecg.augmentation import augment_minority
from repro.ecg.dataset import (
    PAPER_N_AF,
    PAPER_N_NORMAL,
    Dataset,
    Record,
    generate_dataset,
    load_cinc2017_like,
    load_npz,
    save_npz,
)
from repro.ecg.hrv import rr_feature_matrix
from repro.ecg.features import PAPER_MAX_LENGTH, stft_features, zero_pad
from repro.ecg.generator import ECGConfig, generate_recording
from repro.ecg.rpeaks import gamboa_segmenter, pan_tompkins, rr_intervals

__all__ = [
    "ECGConfig",
    "generate_recording",
    "save_npz",
    "load_npz",
    "Dataset",
    "Record",
    "generate_dataset",
    "load_cinc2017_like",
    "PAPER_N_NORMAL",
    "PAPER_N_AF",
    "PAPER_MAX_LENGTH",
    "gamboa_segmenter",
    "pan_tompkins",
    "rr_intervals",
    "augment_minority",
    "zero_pad",
    "stft_features",
    "rr_feature_matrix",
]
