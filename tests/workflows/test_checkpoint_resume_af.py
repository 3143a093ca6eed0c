"""AF pipeline crash/resume: kill mid-run, resume, identical predictions.

The deterministic-resume proof for the paper's flagship workflow: a run
killed partway through the STFT stage is re-run against the same
checkpoint store and must (a) produce bit-identical features and
predictions, (b) replay the completed work instead of re-executing it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import Runtime
from repro.runtime.config import RuntimeConfig
from repro.runtime.exceptions import WorkflowKilledError
from repro.workflows import (
    PipelineConfig,
    extract_features,
    prepare_dataset,
    af_pipeline,
    reduce_dimensions,
)
from repro.workflows.af_pipeline import make_estimator
from tests.support.faults import raise_after

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


def run_pipeline(dataset, config=None):
    """Features -> PCA -> KNN train/predict under one runtime."""
    with Runtime(executor="sequential", config=config) as rt:
        feats, labels = extract_features(dataset, TINY)
        reduced, _ = reduce_dimensions(feats, TINY)
        import repro.dsarray as ds

        dy = ds.array(labels.reshape(-1, 1), (TINY.block_size[0], 1))
        knn = make_estimator("knn", n_neighbors=3).fit(reduced, dy)
        preds = knn.predict(reduced)
        return feats, preds, rt.trace()


def test_kill_then_resume_is_bit_identical(tmp_path, tiny_dataset, monkeypatch):
    feats_clean, preds_clean, trace_clean = run_pipeline(tiny_dataset)
    assert trace_clean.n_restored == 0

    config = RuntimeConfig(
        executor="sequential", checkpoint_dir=str(tmp_path / "ckpt")
    )
    # the process "dies" in the fourth STFT batch, three tasks in: a
    # callee of the stft_batch body raises the kill (patched in this
    # process only; the runtime is sequential)
    with monkeypatch.context() as patch:
        patch.setattr(
            af_pipeline,
            "stft_features",
            raise_after(
                3,
                af_pipeline.stft_features,
                lambda: WorkflowKilledError("killed in the fourth STFT batch"),
            ),
        )
        with pytest.raises(WorkflowKilledError):
            run_pipeline(tiny_dataset, config=config)

    # resume against the same store
    feats, preds, trace = run_pipeline(tiny_dataset, config=config)

    np.testing.assert_array_equal(feats, feats_clean)
    np.testing.assert_array_equal(preds, preds_clean)
    # the three completed tasks were replayed, not re-executed
    assert trace.n_restored >= 3
    assert trace.n_executed < trace_clean.n_executed
    assert trace.n_executed + trace.n_restored >= len(trace_clean)


def test_second_resume_replays_everything_checkpointable(tmp_path, tiny_dataset):
    config = RuntimeConfig(
        executor="sequential", checkpoint_dir=str(tmp_path / "ckpt")
    )
    _, preds1, trace1 = run_pipeline(tiny_dataset, config=config)
    _, preds2, trace2 = run_pipeline(tiny_dataset, config=config)

    np.testing.assert_array_equal(preds1, preds2)
    assert trace2.n_restored > 0
    # every checkpointed task of run 1 restores in run 2
    assert trace2.n_executed < trace1.n_executed
