"""The end-to-end AF classification workflow (paper §III).

Stages, exactly as the paper describes them:

1. load the (synthetic) CinC-2017-like dataset,
2. shuffling-based augmentation of the AF class until balanced,
3. zero-padding to the longest signal,
4. STFT feature extraction (flattened spectrograms),
5. PCA keeping 95% of the variance (covariance method; with fewer
   recordings than features, one SVD task on the centered rows),
6. optional StandardScaler (the extra step of the KNN experiments),
7. 5-fold cross-validated training of the chosen classifier,
8. accuracy + averaged confusion matrix (Table I artefacts).

STFT extraction runs as one task per batch of recordings so the
preprocessing parallelises like the rest of the workflow.

Stages 3-5 do not depend on the classifier, so the study is one graph
(:func:`run_study`): :func:`study_features` submits them once and every
model's stages 6-8 hang off the same PCA futures.  Within one runtime
that prefix is remembered by content, so calling :func:`run_classical`
once per model lands on the same graph.
"""

from __future__ import annotations

import dataclasses
import time
import weakref
from collections.abc import Mapping, Sequence
from contextvars import ContextVar
from typing import Any, NamedTuple

import numpy as np

import repro.dsarray as ds
from repro.ecg import (
    Dataset,
    ECGConfig,
    augment_minority,
    load_cinc2017_like,
    stft_features,
    zero_pad,
)
from repro.ml import (
    PCA,
    CascadeSVM,
    CVResult,
    KNeighborsClassifier,
    RandomForestClassifier,
    StandardScaler,
    cross_validate,
)
from repro.runtime import Runtime, active_runtime, fingerprint, task, wait_on


@dataclasses.dataclass
class PipelineConfig:
    """Knobs of the AF workflow; defaults give a laptop-sized run that
    preserves every structural property of the paper's full-size one."""

    scale: float = 0.02
    seed: int = 0
    nperseg: int = 128
    pca_variance: float = 0.95
    block_size: tuple[int, int] = (64, 256)
    n_splits: int = 5
    stft_batch: int = 32
    fs: float = 300.0
    #: target padded length; None = longest signal in the dataset
    target_length: int | None = None
    #: decimation factor applied to the padded signals before the STFT.
    #: The paper's full run keeps every sample (decimate=1, 18810 STFT
    #: features); laptop-scale runs decimate to keep the covariance
    #: matrix of the PCA tractable (feature count scales ~1/decimate).
    decimate: int = 4
    #: generator parameters; None = defaults.  The Table I benchmark
    #: uses a noisier configuration so absolute accuracies land in the
    #: paper's range rather than saturating.
    ecg: "ECGConfig | None" = None


@task(returns=1, name="stft_batch")
def _stft_batch(padded_batch: np.ndarray, fs: float, nperseg: int):
    """STFT + flatten for one batch of padded recordings."""
    return stft_features(padded_batch, fs=fs, nperseg=nperseg)


def prepare_dataset(cfg: PipelineConfig) -> Dataset:
    """Stages 1-2: load and balance."""
    dataset = load_cinc2017_like(scale=cfg.scale, seed=cfg.seed, cfg=cfg.ecg)
    return augment_minority(dataset, seed=cfg.seed + 1)


def _given_or_prepared(dataset: Dataset | None, cfg: PipelineConfig) -> Dataset:
    """The caller's dataset, or the generated one when none was given."""
    if dataset is None:
        return prepare_dataset(cfg)
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    return dataset


def _pad_decimate(
    dataset: Dataset, cfg: PipelineConfig, step: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Stage 3: signals zero-padded to ``cfg.target_length`` with every
    *step*-th sample kept (default ``cfg.decimate``), and labels as 0/1."""
    step = max(cfg.decimate if step is None else step, 1)
    padded = zero_pad(dataset.signals, cfg.target_length, step)
    return padded, np.where(dataset.labels == "AF", 1, 0)


#: ``(dataset, cfg, (padded, labels))``: stage 3's output, handed by
#: :func:`study_features` (which padded for its content key) to the
#: ``extract_features(dataset, cfg)`` call it makes.  It calls stage 4
#: by that module-level name because the benchmark times the stage by
#: wrapping it.
_padded: ContextVar[tuple | None] = ContextVar("_padded", default=None)


def extract_features(dataset: Dataset, cfg: PipelineConfig) -> tuple[np.ndarray, np.ndarray]:
    """Stages 3-4: zero-pad and STFT (task per batch).

    Returns (features, labels) as concrete arrays.
    """
    handed = _padded.get()
    if handed is not None and handed[0] is dataset and handed[1] is cfg:
        padded, labels = handed[2]
    else:
        padded, labels = _pad_decimate(dataset, cfg)
    fs_eff = cfg.fs / max(cfg.decimate, 1)
    batches = [
        _stft_batch(padded[s : s + cfg.stft_batch], fs_eff, cfg.nperseg)
        for s in range(0, len(padded), cfg.stft_batch)
    ]
    feats = np.vstack(wait_on(batches))
    return feats, labels.astype(float)


def reduce_dimensions(
    features: np.ndarray, cfg: PipelineConfig
) -> tuple[ds.Array, PCA]:
    """Stage 5: PCA on a ds-array: the mean map-reduce, then one
    decomposition task (the centered rows' thin SVD when there are
    fewer recordings than features, else the covariance's ``eigh``)."""
    dx = ds.array(features, cfg.block_size)
    pca = PCA(n_components=cfg.pca_variance)
    reduced = pca.fit_transform(dx, block_size=cfg.block_size)
    return reduced, pca


#: the paper's three classical algorithms: estimator class and defaults
_ESTIMATORS: dict[str, tuple[type, dict[str, Any]]] = {
    "csvm": (CascadeSVM, {"cascade_arity": 2, "max_iter": 3, "kernel": "rbf", "gamma": "auto"}),
    "knn": (KNeighborsClassifier, {"n_neighbors": 5}),
    "rf": (RandomForestClassifier, {"n_estimators": 40, "distr_depth": 1, "random_state": 0}),
}


def _estimator_spec(algorithm: str) -> tuple[type, dict[str, Any]]:
    if algorithm not in _ESTIMATORS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected csvm, knn or rf")
    return _ESTIMATORS[algorithm]


def make_estimator(algorithm: str, **overrides: Any):
    """Factory for the paper's three classical algorithms."""
    cls, defaults = _estimator_spec(algorithm)
    return cls(**{**defaults, **overrides})


class StudyFeatures(NamedTuple):
    """The model-independent prefix of the study (stages 3-5)."""

    #: PCA-reduced samples; under a runtime its blocks are futures
    reduced: ds.Array
    #: 0/1 labels as a one-column ds-array
    labels: ds.Array
    n_features_in: int
    n_components: int


#: the fields of :class:`PipelineConfig` that stages 3-5 read
_PREFIX_FIELDS = (
    "fs", "decimate", "target_length", "nperseg", "stft_batch", "pca_variance", "block_size",
)

#: runtime -> (content key, prefix) of the last study submitted to it.
#: Futures die with their runtime, so does the entry; one entry per
#: runtime keeps a long-lived one bounded.
_remembered: "weakref.WeakKeyDictionary[Runtime, tuple[str, StudyFeatures]]" = (
    weakref.WeakKeyDictionary()
)


def study_features(dataset: Dataset, cfg: PipelineConfig) -> StudyFeatures:
    """Stages 3-5 plus the label ds-array: what every model of the study
    trains on.

    Under an active runtime the result is remembered for that runtime,
    keyed by content (the padded and decimated signals, the labels and
    the prefix fields of *cfg*): a second call with equal inputs returns
    the same futures instead of submitting STFT and PCA again.  Nothing
    is remembered without a runtime, across runtimes or when a stage
    raised.
    """
    padded = _pad_decimate(dataset, cfg)
    rt = active_runtime()
    if rt is not None:
        key = fingerprint((*padded, [getattr(cfg, f) for f in _PREFIX_FIELDS]))
        known = _remembered.get(rt)
        if known is not None and known[0] == key:
            return known[1]
    token = _padded.set((dataset, cfg, padded))
    try:
        feats, labels = extract_features(dataset, cfg)
    finally:
        _padded.reset(token)
    # only the component count is kept of the PCA: its components_ is a
    # view that pins the whole min(n, d) x d matrix of components
    reduced, pca = reduce_dimensions(feats, cfg)
    dy = ds.array(labels.reshape(-1, 1), (cfg.block_size[0], 1))
    prefix = StudyFeatures(reduced, dy, feats.shape[1], pca.n_components_)
    if rt is not None:
        _remembered[rt] = (key, prefix)
    return prefix


@dataclasses.dataclass
class ClassicalResult:
    """One classical-algorithm experiment outcome."""

    algorithm: str
    cv: CVResult
    train_time_s: float
    n_features_in: int
    n_components: int

    @property
    def accuracy(self) -> float:
        return self.cv.mean_accuracy

    @property
    def confusion(self) -> np.ndarray:
        return self.cv.mean_confusion


def run_study(
    models: Sequence[str],
    cfg: PipelineConfig | None = None,
    dataset: Dataset | None = None,
    estimator_overrides: Mapping[str, dict] | None = None,
) -> dict[str, ClassicalResult]:
    """The classical half of the study as one graph: STFT and PCA once
    (:func:`study_features`), then each of *models* cross-validated on
    those same futures, in the order given.

    *estimator_overrides* maps a model name to keyword overrides for its
    estimator.  The KNN variant applies the StandardScaler first, as in
    §IV-B; the PCA time is excluded from the reported training time,
    matching the paper's measurement protocol.
    """
    models = list(models)
    overrides = dict(estimator_overrides or {})
    for name in (*models, *overrides):
        _estimator_spec(name)
    if len(set(models)) != len(models):
        raise ValueError(f"repeated algorithm in {models}")
    cfg = cfg or PipelineConfig()
    prefix = study_features(_given_or_prepared(dataset, cfg), cfg)

    results = {}
    for algorithm in models:
        x = prefix.reduced
        if algorithm == "knn":
            x = StandardScaler().fit_transform(x)
        kwargs = overrides.get(algorithm) or {}
        t0 = time.perf_counter()
        cv = cross_validate(
            lambda: make_estimator(algorithm, **kwargs),
            x,
            prefix.labels,
            n_splits=cfg.n_splits,
            random_state=cfg.seed,
        )
        results[algorithm] = ClassicalResult(
            algorithm=algorithm,
            cv=cv,
            train_time_s=time.perf_counter() - t0,
            n_features_in=prefix.n_features_in,
            n_components=prefix.n_components,
        )
    return results


def run_classical(
    algorithm: str,
    cfg: PipelineConfig | None = None,
    dataset: Dataset | None = None,
    estimator_overrides: dict | None = None,
) -> ClassicalResult:
    """Full pipeline for one of the paper's classical algorithms: the
    one-model form of :func:`run_study`."""
    overrides = {algorithm: estimator_overrides} if estimator_overrides else None
    return run_study([algorithm], cfg, dataset, overrides)[algorithm]


def run_cnn(
    cfg: PipelineConfig | None = None,
    dataset: Dataset | None = None,
    epochs: int = 7,
    n_workers: int = 4,
    gpus_per_worker: int = 1,
    nested: bool = True,
    downsample: int = 8,
    lr: float = 0.02,
    batch_size: int = 32,
    input_mode: str = "spectrogram",
) -> dict:
    """CNN pipeline (§III-D): data-parallel training with per-epoch
    weight merging and K-fold CV.

    ``input_mode='spectrogram'`` (default) feeds the network the STFT
    spectrogram — frequency bins as channels, time frames as the
    convolution axis — the representation of the paper's cited CNN
    approach (Huang et al., "ECG arrhythmia classification using
    STFT-based spectrogram and convolutional neural network").
    ``input_mode='raw'`` trains on the downsampled waveform instead.
    """
    from scipy import signal as sp_signal

    from repro.nn import TrainerParams, af_cnn, cnn_cross_validation

    cfg = cfg or PipelineConfig()
    dataset = _given_or_prepared(dataset, cfg)

    if input_mode == "spectrogram":
        dec, y = _pad_decimate(dataset, cfg)
        fs_eff = cfg.fs / max(cfg.decimate, 1)
        _, _, spec = sp_signal.spectrogram(dec, fs=fs_eff, nperseg=cfg.nperseg, axis=1)
        x = np.log1p(spec)  # (N, freq_channels, time_frames)
    elif input_mode == "raw":
        padded, y = _pad_decimate(dataset, cfg, step=downsample)
        x = padded[:, None, :]
    else:
        raise ValueError(f"unknown input_mode {input_mode!r}")
    # per-record z-normalisation (standard practice for CNN inputs;
    # removes the inter-recording gain/baseline variation)
    mu = x.mean(axis=(1, 2), keepdims=True)
    sd = x.std(axis=(1, 2), keepdims=True)
    sd[sd == 0] = 1.0
    x = (x - mu) / sd

    model = af_cnn(input_length=x.shape[2], in_channels=x.shape[1], seed=cfg.seed)
    params = TrainerParams(
        epochs=epochs,
        n_workers=n_workers,
        gpus_per_worker=gpus_per_worker,
        lr=lr,
        batch_size=batch_size,
        seed=cfg.seed,
    )
    t0 = time.perf_counter()
    result = cnn_cross_validation(
        model.config(), x, y,
        n_splits=cfg.n_splits, params=params, nested=nested,
        random_state=cfg.seed,
    )
    result["train_time_s"] = time.perf_counter() - t0
    result["input_length"] = x.shape[2]
    return result
