"""The AF study as one graph: ``study_features`` runs STFT → PCA once
per runtime and every model's cross-validation hangs off the same
futures, whether the caller writes ``run_study`` or loops
``run_classical``."""

from __future__ import annotations

import copy
import dataclasses
import gc
import sys
import threading

import numpy as np
import pytest

from repro.ecg import Dataset
from repro.runtime import Runtime, RuntimeConfig, TaskExecutionError
from repro.workflows import (
    PipelineConfig,
    af_pipeline,
    prepare_dataset,
    run_classical,
    run_cnn,
    run_study,
)
from repro.workflows.af_pipeline import study_features
from tests.support.faults import InjectedFault

TINY = PipelineConfig(
    scale=0.004,
    seed=0,
    block_size=(16, 64),
    n_splits=3,
    decimate=32,
    stft_batch=16,
)
MODELS = ("csvm", "knn", "rf")
OVERRIDES = {"csvm": {"max_iter": 1}, "rf": {"n_estimators": 3}}
#: the prefix's tasks; the STFT matrix has fewer samples than features, so
#: PCA's decomposition is the single ``_row_decomposition`` task
PREFIX_TASKS = ("stft_batch", "_partial_sum", "_row_decomposition")

RUNTIMES = {
    "sequential": {"executor": "sequential"},
    "threads": {"executor": "threads", "max_workers": 2},
    "processes": {"executor": "threads", "backend": "processes", "max_workers": 2},
}


@pytest.fixture(scope="module")
def tiny_dataset():
    return prepare_dataset(TINY)


@pytest.fixture
def own_dataset(tiny_dataset):
    """A copy the test may mutate."""
    return copy.deepcopy(tiny_dataset)


def runtime(kind: str = "threads") -> Runtime:
    return Runtime(config=RuntimeConfig(**RUNTIMES[kind]))


def prefix_counts(rt: Runtime) -> dict[str, int]:
    rt.barrier()
    names = [r.name for r in rt.trace()]
    return {name: names.count(name) for name in PREFIX_TASKS}


def summary(result) -> tuple:
    return (
        result.algorithm,
        result.accuracy,
        list(result.cv.fold_accuracies),
        [m.tolist() for m in result.cv.confusion_matrices],
        result.n_features_in,
        result.n_components,
    )


# -- (a) one prefix however the study is driven ---------------------------
@pytest.mark.parametrize("kind", list(RUNTIMES))
def test_classical_loop_runs_the_prefix_once(tiny_dataset, kind):
    fresh = {}
    for model in MODELS:
        with runtime(kind) as rt:
            fresh[model] = summary(run_classical(model, TINY, tiny_dataset, OVERRIDES.get(model)))
            one_call = prefix_counts(rt)
    assert all(one_call.values())

    with runtime(kind) as rt:
        looped = {
            model: summary(run_classical(model, TINY, tiny_dataset, OVERRIDES.get(model)))
            for model in MODELS
        }
        assert prefix_counts(rt) == one_call
    assert looped == fresh


def test_run_study_equals_one_runtime_per_model(tiny_dataset):
    with runtime() as rt:
        study = run_study(MODELS, TINY, tiny_dataset, OVERRIDES)
        counts = prefix_counts(rt)
    assert list(study) == list(MODELS)
    for model in MODELS:
        with runtime() as rt:
            alone = run_classical(model, TINY, tiny_dataset, OVERRIDES.get(model))
            assert prefix_counts(rt) == counts
        assert summary(study[model]) == summary(alone)


def test_the_shared_prefix_graph_breaks_no_invariant(tiny_dataset):
    """Three cross-validations hanging off one PCA's futures: every
    state transition of the study's graph is legal, and it drains."""
    with runtime("threads") as rt:
        run_study(MODELS, TINY, tiny_dataset, OVERRIDES)
        rt.barrier()
        assert rt.check_invariants(quiesced=True) == []


# -- (b) a remembered prefix is the computed one --------------------------
def test_remembered_prefix_is_byte_identical(tiny_dataset):
    with runtime():
        first = study_features(tiny_dataset, TINY)
        again = study_features(tiny_dataset, TINY)
        assert again is first
        remembered = again.reduced.collect().tobytes()
        labels = again.labels.collect().tobytes()
    with runtime():
        computed = study_features(tiny_dataset, TINY)
        assert computed is not first
        assert computed.reduced.collect().tobytes() == remembered
        assert computed.labels.collect().tobytes() == labels
        assert computed[2:] == first[2:]


def test_the_signals_are_padded_once_per_call(tiny_dataset, monkeypatch):
    calls = []
    pad = af_pipeline._pad_decimate

    def counted(*args, **kwargs):
        calls.append(args)
        return pad(*args, **kwargs)

    monkeypatch.setattr(af_pipeline, "_pad_decimate", counted)
    with runtime():
        first = study_features(tiny_dataset, TINY)  # miss
        assert len(calls) == 1
        assert study_features(tiny_dataset, TINY) is first  # hit
        assert len(calls) == 2
    assert study_features(tiny_dataset, TINY)[2:] == first[2:]  # no runtime
    assert len(calls) == 3
    # a direct caller of stage 4 still gets stage 3
    feats, _ = af_pipeline.extract_features(tiny_dataset, TINY)
    assert len(calls) == 4 and feats.shape[1] == first.n_features_in


# -- (c) what makes the prefix different ----------------------------------
@pytest.mark.parametrize(
    "field, value",
    [
        ("fs", 250.0),
        ("decimate", 16),
        ("target_length", 20000),
        ("nperseg", 64),
        ("stft_batch", 8),
        ("pca_variance", 0.9),
        ("block_size", (16, 32)),
    ],
)
def test_a_changed_prefix_field_recomputes(tiny_dataset, field, value):
    assert field in af_pipeline._PREFIX_FIELDS
    with runtime() as rt:
        first = study_features(tiny_dataset, TINY)
        once = prefix_counts(rt)["_row_decomposition"]
        other = study_features(tiny_dataset, dataclasses.replace(TINY, **{field: value}))
        assert other is not first
        assert prefix_counts(rt)["_row_decomposition"] == 2 * once


def test_every_config_field_is_prefix_or_not():
    """A new ``PipelineConfig`` field has to be put on one side: in the
    key if stages 3-5 read it, here if they do not."""
    after_prefix = {"scale", "seed", "n_splits", "ecg"}
    fields = {f.name for f in dataclasses.fields(PipelineConfig)}
    assert fields == set(af_pipeline._PREFIX_FIELDS) | after_prefix
    assert not set(af_pipeline._PREFIX_FIELDS) & after_prefix


def test_the_key_is_content_not_identity(own_dataset):
    with runtime() as rt:
        first = study_features(own_dataset, TINY)
        once = prefix_counts(rt)["_row_decomposition"]

        # a sample the decimation keeps, changed in place
        own_dataset.records[3].signal[2 * TINY.decimate] += 0.5
        sample = study_features(own_dataset, TINY)
        assert sample is not first
        assert prefix_counts(rt)["_row_decomposition"] == 2 * once

        record = own_dataset.records[0]
        record.label = "AF" if record.label == "N" else "N"
        label = study_features(own_dataset, TINY)
        assert label is not sample
        assert prefix_counts(rt)["_row_decomposition"] == 3 * once

        # an equal copy is the same content
        assert study_features(copy.deepcopy(own_dataset), TINY) is label


def test_a_second_runtime_recomputes(tiny_dataset):
    with runtime() as outer:
        first = study_features(tiny_dataset, TINY)
        with runtime() as inner:
            second = study_features(tiny_dataset, TINY)
            assert second is not first
            assert prefix_counts(inner) == prefix_counts(outer)
        assert study_features(tiny_dataset, TINY) is first


# -- (d) what does not --------------------------------------------------
def test_fields_after_the_prefix_reuse_it(tiny_dataset):
    with runtime() as rt:
        base = run_classical("rf", TINY, tiny_dataset, {"n_estimators": 3})
        once = prefix_counts(rt)
        varied = [
            run_classical("rf", dataclasses.replace(TINY, n_splits=4), tiny_dataset, {"n_estimators": 3}),
            run_classical("rf", dataclasses.replace(TINY, seed=7), tiny_dataset, {"n_estimators": 3}),
            run_classical("rf", TINY, tiny_dataset, {"n_estimators": 5}),
        ]
        assert prefix_counts(rt) == once
    assert len(varied[0].cv.fold_accuracies) == 4
    assert all(r.n_components == base.n_components for r in varied)


# -- (e) nothing remembered without a runtime or after a failure --------
def test_nothing_is_remembered_without_a_runtime(tiny_dataset):
    # earlier tests' runtimes still in reference cycles would otherwise
    # drop out of the weak mapping mid-test, whenever the collector runs
    gc.collect()
    before = len(af_pipeline._remembered)
    first = study_features(tiny_dataset, TINY)
    second = study_features(tiny_dataset, TINY)
    assert second is not first
    assert second.reduced.collect().tobytes() == first.reduced.collect().tobytes()
    assert len(af_pipeline._remembered) == before


def test_a_failed_prefix_is_not_remembered(tiny_dataset, monkeypatch):
    def svd_fails(a, full_matrices=True):
        raise InjectedFault("svd failed")

    # the patched callee exists in this process only: runtime() runs
    # bodies on threads here
    with runtime() as rt:
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "svd", svd_fails)
            with pytest.raises(TaskExecutionError):
                study_features(tiny_dataset, TINY)
        assert rt not in af_pipeline._remembered
        prefix = study_features(tiny_dataset, TINY)
        assert af_pipeline._remembered[rt][1] is prefix
        assert prefix_counts(rt)["_row_decomposition"] == 2
        assert np.isfinite(prefix.reduced.collect()).all()


# -- (f) bounded, and gone with the runtime ---------------------------
def test_one_entry_per_runtime_and_none_after_it(tiny_dataset):
    gc.collect()
    before = len(af_pipeline._remembered)
    rt = runtime("processes")
    with rt:
        study_features(tiny_dataset, TINY)
        study_features(tiny_dataset, dataclasses.replace(TINY, nperseg=64))
        assert len(af_pipeline._remembered) == before + 1
    assert len(af_pipeline._remembered) == before + 1
    del rt
    gc.collect()
    assert len(af_pipeline._remembered) == before


def test_concurrent_callers_leave_one_consistent_entry(tiny_dataset):
    """The table is read and written without a lock: racing callers may
    each compute the prefix, but every one gets a whole, equal result
    and the runtime ends with one entry."""
    got, errors = [], []

    def call():
        try:
            got.append(study_features(tiny_dataset, TINY).reduced.collect().tobytes())
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with runtime() as rt:
            threads = [threading.Thread(target=call) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert not errors
            assert len(set(got)) == 1 and len(got) == 6
            assert study_features(tiny_dataset, TINY) is af_pipeline._remembered[rt][1]
    finally:
        sys.setswitchinterval(interval)


# -- (g) the models are checked before anything is submitted ------------
@pytest.mark.parametrize(
    "models, overrides",
    [
        (("csvm", "csvm"), None),
        (("csvm", "xgboost"), None),
        (("csvm",), {"svm": {"max_iter": 1}}),
    ],
)
def test_run_study_rejects_models_before_submitting(tiny_dataset, models, overrides):
    with runtime() as rt:
        with pytest.raises(ValueError):
            run_study(models, TINY, tiny_dataset, overrides)
        assert rt.stats()["n_tasks"] == 0
        assert rt not in af_pipeline._remembered


# -- the dataset argument -----------------------------------------------
def test_an_empty_dataset_is_an_error_not_a_default():
    """``Dataset`` has ``__len__``, so an empty one is falsy: it must
    not be taken for "no dataset given"."""
    with pytest.raises(ValueError, match="empty dataset"):
        run_classical("rf", TINY, Dataset([]))
    with pytest.raises(ValueError, match="empty dataset"):
        run_cnn(TINY, Dataset([]), epochs=1)


def test_no_dataset_means_the_generated_one(tiny_dataset, monkeypatch):
    calls = []

    def prepare(cfg):
        calls.append(cfg)
        return tiny_dataset

    monkeypatch.setattr(af_pipeline, "prepare_dataset", prepare)
    given = run_classical("rf", TINY, tiny_dataset, {"n_estimators": 3})
    assert calls == []
    default = run_classical("rf", TINY, None, {"n_estimators": 3})
    assert calls == [TINY]
    assert summary(default) == summary(given)
    run_cnn(TINY, None, epochs=1, n_workers=2, nested=False, downsample=32, input_mode="raw")
    assert calls == [TINY, TINY]
