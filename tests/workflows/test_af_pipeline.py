"""End-to-end AF pipeline tests (small scale, every stage exercised)."""

from __future__ import annotations

import numpy as np
import pytest

import repro.dsarray as ds
from repro.ecg import generate_dataset
from repro.runtime import Runtime
from repro.workflows import (
    PipelineConfig,
    extract_features,
    prepare_dataset,
    reduce_dimensions,
    run_classical,
    run_cnn,
    table1_block,
    side_by_side,
)
from repro.workflows.af_pipeline import make_estimator

TINY = PipelineConfig(
    scale=0.004,
    seed=0,
    block_size=(16, 64),
    n_splits=3,
    decimate=8,
    stft_batch=8,
)


@pytest.fixture(scope="module")
def tiny_dataset():
    return prepare_dataset(TINY)


def test_prepare_dataset_balanced(tiny_dataset):
    counts = tiny_dataset.class_counts()
    assert counts["N"] == counts["AF"]


def test_extract_features_shapes(tiny_dataset):
    feats, labels = extract_features(tiny_dataset, TINY)
    assert feats.shape[0] == len(tiny_dataset)
    assert labels.shape == (len(tiny_dataset),)
    assert set(np.unique(labels)) == {0.0, 1.0}
    assert feats.shape[1] > 100  # real STFT dimensionality


def test_stft_runs_as_tasks(tiny_dataset):
    with Runtime(executor="sequential") as rt:
        extract_features(tiny_dataset, TINY)
        counts = rt.graph.count_by_name()
    expected = -(-len(tiny_dataset) // TINY.stft_batch)  # ceil division
    assert counts["stft_batch"] == expected


def test_reduce_dimensions(tiny_dataset):
    feats, _ = extract_features(tiny_dataset, TINY)
    reduced, pca = reduce_dimensions(feats, TINY)
    assert isinstance(reduced, ds.Array)
    assert reduced.shape[0] == feats.shape[0]
    assert pca.n_components_ < feats.shape[1]
    assert pca.explained_variance_ratio_.sum() >= 0.95 - 1e-6


def test_make_estimator_factory():
    from repro.ml import CascadeSVM, KNeighborsClassifier, RandomForestClassifier

    assert isinstance(make_estimator("csvm"), CascadeSVM)
    assert isinstance(make_estimator("knn"), KNeighborsClassifier)
    assert isinstance(make_estimator("rf"), RandomForestClassifier)
    assert make_estimator("rf", n_estimators=7).n_estimators == 7
    with pytest.raises(ValueError):
        make_estimator("xgboost")


@pytest.mark.parametrize("algo", ["csvm", "knn", "rf"])
def test_run_classical_all_algorithms(tiny_dataset, algo):
    overrides = {"max_iter": 1} if algo == "csvm" else (
        {"n_estimators": 5} if algo == "rf" else {}
    )
    res = run_classical(algo, TINY, tiny_dataset, estimator_overrides=overrides)
    assert 0.0 <= res.accuracy <= 1.0
    assert res.confusion.shape == (2, 2)
    assert res.confusion.sum() == pytest.approx(1.0)
    assert res.train_time_s > 0
    assert res.n_components <= res.n_features_in


def test_run_classical_under_runtime(tiny_dataset):
    with Runtime(executor="threads", max_workers=4):
        res = run_classical("rf", TINY, tiny_dataset, estimator_overrides={"n_estimators": 5})
    assert 0.0 <= res.accuracy <= 1.0


def test_run_cnn_smoke(tiny_dataset):
    res = run_cnn(
        TINY,
        tiny_dataset,
        epochs=2,
        n_workers=2,
        nested=False,
        downsample=32,
    )
    assert 0.0 <= res["mean_accuracy"] <= 1.0
    assert res["mean_confusion"].shape == (2, 2)
    assert res["train_time_s"] > 0


def test_run_cnn_raw_mode(tiny_dataset):
    res = run_cnn(
        TINY, tiny_dataset, epochs=1, n_workers=2, nested=False,
        downsample=32, input_mode="raw",
    )
    assert 0.0 <= res["mean_accuracy"] <= 1.0


def test_run_cnn_invalid_mode(tiny_dataset):
    with pytest.raises(ValueError):
        run_cnn(TINY, tiny_dataset, epochs=1, input_mode="wavelet")


def test_run_cnn_spectrogram_learns(tiny_dataset):
    """The spectrogram input (the cited CNN approach) must actually
    separate the classes even at tiny scale."""
    res = run_cnn(TINY, tiny_dataset, epochs=10, n_workers=2, nested=True, lr=0.05)
    assert res["mean_accuracy"] > 0.6


def test_run_cnn_nested_under_runtime(tiny_dataset):
    with Runtime(executor="threads", max_workers=4):
        res = run_cnn(
            TINY,
            tiny_dataset,
            epochs=2,
            n_workers=2,
            nested=True,
            downsample=32,
        )
    assert len(res["fold_accuracies"]) == TINY.n_splits


class TestReporting:
    def test_table1_block(self):
        cm = np.array([[0.4, 0.1], [0.1, 0.4]])
        text = table1_block("CSVM", 0.749, cm, ["AF", "N"])
        assert "74.9%" in text
        assert "CSVM" in text
        assert "0.400" in text

    def test_side_by_side(self):
        assert "a\n\nb" == side_by_side(["a", "b"])
