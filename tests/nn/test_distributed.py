"""Distributed CNN training: strategies, graph shapes (paper Figs. 9/10)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import DistributedTrainer, Sequential, TrainerParams, cnn_cross_validation
from repro.nn.layers import Dense, ReLU
from repro.runtime import Runtime


def make_config(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential([Dense(6, 16, rng), ReLU(), Dense(16, 2, rng)]).config()


def make_data(n=240, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 6))
    y = (x[:, :3].sum(axis=1) > x[:, 3:].sum(axis=1)).astype(int)
    return x, y


def test_trainer_produces_working_model():
    x, y = make_data()
    cfg = make_config()
    params = TrainerParams(epochs=6, n_workers=4, lr=0.05, batch_size=16)
    with Runtime(executor="threads", max_workers=4):
        weights = DistributedTrainer(cfg, params).fit(x, y)
    model = Sequential.from_config(cfg)
    model.set_weights(weights)
    assert model.evaluate(x, y) > 0.85


def test_trainer_works_without_runtime():
    x, y = make_data(n=120)
    params = TrainerParams(epochs=3, n_workers=2, lr=0.05)
    weights = DistributedTrainer(make_config(), params).fit(x, y)
    assert isinstance(weights, list)


def test_4gpu_numerics_close_to_1gpu():
    """Intra-task replication averages weights; the result must stay a
    working model (not bit-identical, but comparable accuracy)."""
    x, y = make_data()
    cfg = make_config()
    accs = {}
    for gpus in (1, 4):
        params = TrainerParams(epochs=10, n_workers=2, gpus_per_worker=gpus, lr=0.05)
        weights = DistributedTrainer(cfg, params).fit(x, y)
        model = Sequential.from_config(cfg)
        model.set_weights(weights)
        accs[gpus] = model.evaluate(x, y)
    assert accs[1] > 0.8
    assert accs[4] > 0.7


def test_gpus_per_worker_validation():
    with pytest.raises(ValueError):
        DistributedTrainer(make_config(), TrainerParams(gpus_per_worker=2))


def test_epoch_task_structure_non_nested():
    """Per epoch: one train task per worker + one merge (Fig. 9)."""
    x, y = make_data(n=80)
    cfg = make_config()
    params = TrainerParams(epochs=3, n_workers=4, lr=0.05)
    with Runtime(executor="sequential") as rt:
        DistributedTrainer(cfg, params).fit(x, y)
        counts = rt.graph.count_by_name()
    assert counts["train_epoch_1gpu"] == 3 * 4
    assert counts["merge_weights"] == 3


def test_4gpu_task_constraint_recorded():
    x, y = make_data(n=40)
    cfg = make_config()
    params = TrainerParams(epochs=1, n_workers=2, gpus_per_worker=4, lr=0.05)
    with Runtime(executor="sequential") as rt:
        DistributedTrainer(cfg, params).fit(x, y)
        recs = [r for r in rt.trace() if r.name == "train_epoch_4gpu"]
    assert recs and all(r.gpus == 4 for r in recs)


def test_nested_fold_tasks_parallel_graph():
    """Nested CV: one fold_train task per fold at the top level, with
    the epoch tasks nested inside (Fig. 10)."""
    x, y = make_data(n=90)
    cfg = make_config()
    params = TrainerParams(epochs=2, n_workers=2, lr=0.05)
    # pinned to the thread backend: the test asserts the nested-DAG
    # *shape*, which worker dispatch legitimately collapses
    with Runtime(executor="threads", max_workers=4, backend="threads") as rt:
        res = cnn_cross_validation(cfg, x, y, n_splits=3, params=params, nested=True)
        trace = rt.trace()
    folds = [r for r in trace if r.name == "fold_train"]
    assert len(folds) == 3
    assert all(r.parent_id is None for r in folds)
    trains = [r for r in trace if r.name == "train_epoch_1gpu"]
    assert len(trains) == 3 * 2 * 2
    fold_ids = {r.task_id for r in folds}
    assert all(r.parent_id in fold_ids for r in trains)
    assert 0.0 <= res["mean_accuracy"] <= 1.0


def test_non_nested_cv_matches_nested_quality():
    x, y = make_data(n=150, seed=4)
    cfg = make_config()
    params = TrainerParams(epochs=5, n_workers=2, lr=0.05)
    with Runtime(executor="threads", max_workers=4):
        flat = cnn_cross_validation(cfg, x, y, n_splits=3, params=params, nested=False)
        nested = cnn_cross_validation(cfg, x, y, n_splits=3, params=params, nested=True)
    assert flat["mean_accuracy"] > 0.7
    assert abs(flat["mean_accuracy"] - nested["mean_accuracy"]) < 0.25
    assert flat["mean_confusion"].shape == (2, 2)
    assert flat["mean_confusion"].sum() == pytest.approx(1.0)


def test_cv_returns_per_fold_accuracies():
    x, y = make_data(n=90)
    params = TrainerParams(epochs=2, n_workers=2, lr=0.05)
    res = cnn_cross_validation(make_config(), x, y, n_splits=3, params=params)
    assert len(res["fold_accuracies"]) == 3


def test_flat_cv_dispatches_training_under_processes():
    """The flat strategy's training tasks are module-level, so a worker
    process runs them (they used to be local-scope functions that the
    process backend ran inline on the coordinator), and the result is
    bit-identical to the sequential executor's."""
    import os

    from repro.runtime import RuntimeConfig

    x, y = make_data(n=90)
    cfg = make_config()
    params = TrainerParams(epochs=2, n_workers=2, lr=0.05)
    with Runtime(executor="sequential"):
        want = cnn_cross_validation(cfg, x, y, n_splits=3, params=params)
        want_weights = DistributedTrainer(cfg, params).fit(x, y)
    config = RuntimeConfig(backend="processes", max_workers=2, collect_trace=True)
    with Runtime(config=config) as rt:
        got = cnn_cross_validation(cfg, x, y, n_splits=3, params=params)
        weights = DistributedTrainer(cfg, params).fit(x, y)
        rt.barrier()
        stats = rt.stats()["backend_stats"]
        trains = [r for r in rt.trace() if r.name == "train_epoch_1gpu"]
    assert len(trains) == (3 + 1) * 2 * 2
    assert all(r.pid not in (None, os.getpid()) for r in trains)
    assert stats["inline"] == 0
    assert [w.tobytes() for w in weights] == [w.tobytes() for w in want_weights]
    assert got["fold_accuracies"] == want["fold_accuracies"]
    assert got["mean_confusion"].tobytes() == want["mean_confusion"].tobytes()
