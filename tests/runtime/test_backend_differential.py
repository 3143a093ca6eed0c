"""Differential tests: the ``threads`` and ``processes`` backends must
be observationally identical.

The same workflows run under both backends (random schedules are the
randomized runtime matrix's, ``test_stress.py``, which draws the backend
as one of its axes); any divergence — values, checkpoint signatures, stats invariants, failure
handling — is a backend bug by definition.  Values are compared
bit-exactly: the process boundary (pickle round trip, out-of-band NumPy
buffers) must not perturb a single bit.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro.dsarray as ds
from repro.ecg import ECGConfig
from repro.ml import (
    PCA,
    CascadeSVM,
    KMeans,
    RandomForestClassifier,
    StandardScaler,
    cross_validate,
)
from repro.runtime import Runtime, RuntimeConfig, task, wait_on
from repro.workflows import PipelineConfig, extract_features, prepare_dataset

BACKENDS = ("threads", "processes")


# ----------------------------------------------------------------------
# module-level (worker-importable, dispatchable) task vocabulary
# ----------------------------------------------------------------------
@task(returns=1)
def _scale(block, factor):
    return np.asarray(block) * factor


@task(returns=1)
def _offset(block, delta):
    return np.asarray(block) + delta


@task(returns=1)
def _checksum(block):
    return float(np.asarray(block).sum())


def _chain_workflow():
    """A small diamond of NumPy tasks; returns the final scalar."""
    base = np.arange(48.0).reshape(6, 8)
    left = _scale(base, 3.0)
    right = _offset(base, -1.5)
    merged = _offset(_scale(left, 0.5), 2.0)
    return wait_on([_checksum(merged), _checksum(right)])


# ----------------------------------------------------------------------
# AF-pipeline smoke workflow
# ----------------------------------------------------------------------
_SMOKE_CFG = PipelineConfig(
    scale=0.004,
    seed=2,
    block_size=(16, 64),
    n_splits=2,
    decimate=8,
    stft_batch=8,
    ecg=ECGConfig(noise_std=0.1),
)


def _run_af_smoke(backend: str) -> dict:
    dataset = prepare_dataset(_SMOKE_CFG)
    with Runtime(config=RuntimeConfig(backend=backend, max_workers=3)):
        feats, labels = extract_features(dataset, _SMOKE_CFG)
        dx = ds.array(feats, _SMOKE_CFG.block_size)
        dy = ds.array(labels.reshape(-1, 1), (_SMOKE_CFG.block_size[0], 1))
        reduced = PCA(n_components=4).fit_transform(
            dx, block_size=_SMOKE_CFG.block_size
        )
        scaled = StandardScaler().fit_transform(reduced)
        cv = cross_validate(
            lambda: RandomForestClassifier(n_estimators=4, random_state=0),
            scaled,
            dy,
            n_splits=_SMOKE_CFG.n_splits,
        )
        collected = scaled.collect()
    return {
        "features": feats,
        "labels": labels,
        "scaled": collected,
        "accuracy": cv.mean_accuracy,
        "fold_accuracies": tuple(cv.fold_accuracies),
    }


def test_af_pipeline_smoke_bit_identical():
    """The end-to-end ECG → STFT → PCA → scaler → forest pipeline
    computes *bit-identical* features, projections and fold accuracies
    on both backends."""
    threads = _run_af_smoke("threads")
    processes = _run_af_smoke("processes")
    assert np.array_equal(threads["features"], processes["features"])
    assert np.array_equal(threads["labels"], processes["labels"])
    assert np.array_equal(threads["scaled"], processes["scaled"])
    assert threads["fold_accuracies"] == processes["fold_accuracies"]
    assert threads["accuracy"] == processes["accuracy"]


def test_chain_values_identical():
    results = {}
    for backend in BACKENDS:
        with Runtime(config=RuntimeConfig(backend=backend, max_workers=2)):
            results[backend] = _chain_workflow()
    assert results["threads"] == results["processes"]


def _blocked_matmul():
    a = np.random.default_rng(0).normal(size=(256, 256))
    b = np.random.default_rng(1).normal(size=(256, 256))
    return (ds.array(a, (128, 128)) @ ds.array(b, (128, 128))).collect()


def _kmeans_centers():
    x = np.random.default_rng(3).normal(size=(800, 16))
    x[400:] += 2.0
    model = KMeans(n_clusters=4, max_iter=3, random_state=0).fit(ds.array(x, (100, 16)))
    return model.cluster_centers_


def _csvm_decisions():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(480, 12))
    x[240:] += 2.0
    y = np.repeat([0.0, 1.0], 240).reshape(-1, 1)
    order = rng.permutation(480)
    x, y = x[order], y[order]
    model = CascadeSVM(max_iter=2, check_convergence=False)
    model.fit(ds.array(x, (60, 12)), ds.array(y, (60, 1)))
    return model.decision_function(x)


@pytest.mark.parametrize("workload", [_blocked_matmul, _kmeans_centers, _csvm_decisions])
def test_dsarray_workloads_bit_identical(workload):
    """ds-array block arithmetic, an iterative estimator and a cascade
    reduction: every block crosses the process boundary and comes back
    unperturbed."""
    results = {}
    for backend in BACKENDS:
        with Runtime(config=RuntimeConfig(backend=backend, max_workers=2)):
            results[backend] = workload()
    assert np.array_equal(results["threads"], results["processes"])


# ----------------------------------------------------------------------
# checkpoint signatures across backends
# ----------------------------------------------------------------------
def test_checkpoint_signatures_identical_across_backends(tmp_path):
    """Task signatures are lineage-based (function identity + argument
    fingerprints), never process-dependent: the same workflow writes
    entries under the same keys whichever backend ran the bodies."""
    keys = {}
    values = {}
    for backend in BACKENDS:
        ckpt_dir = tmp_path / backend
        cfg = RuntimeConfig(backend=backend, max_workers=2, checkpoint_dir=str(ckpt_dir))
        with Runtime(config=cfg) as rt:
            values[backend] = _chain_workflow()
            store = rt.checkpoint_store
        # read after shutdown: checkpoint writes land *after* the result
        # futures resolve, so entries() inside the block could race the
        # final put
        keys[backend] = sorted(entry.key for entry in store.entries())
    assert values["threads"] == values["processes"]
    assert keys["threads"] == keys["processes"]
    assert len(keys["threads"]) > 0


def test_cross_backend_resume(tmp_path):
    """A checkpoint store written under one backend resumes a run under
    the other: every task restores, nothing re-executes."""
    ckpt_dir = str(tmp_path / "store")
    with Runtime(config=RuntimeConfig(backend="threads", checkpoint_dir=ckpt_dir)):
        first = _chain_workflow()

    cfg = RuntimeConfig(backend="processes", max_workers=2, checkpoint_dir=ckpt_dir)
    with Runtime(config=cfg) as rt:
        second = _chain_workflow()
        stats = rt.stats()
        trace = rt.trace()
    assert second == first
    assert stats["restored"] == stats["n_tasks"] > 0
    assert all(r.status == "restored" for r in trace.records())
    # nothing was dispatched to a worker — the bodies never ran
    assert stats["backend_stats"]["dispatched"] == 0


# ----------------------------------------------------------------------
# stats invariants & pid telemetry
# ----------------------------------------------------------------------
def test_thread_backend_records_coordinator_pid():
    with Runtime(config=RuntimeConfig(backend="threads", max_workers=2)) as rt:
        _chain_workflow()
        trace = rt.trace()
        stats = rt.stats()
    pids = {r.pid for r in trace.records()}
    assert pids == {os.getpid()}
    assert stats["backend"] == "threads"
    # every attempt ran its body once, here: the table counts it
    assert stats["by_state"] == {"done": stats["n_tasks"]} == {"done": len(trace)}
    assert stats["backend_stats"] == {"backend": "threads"}


def test_process_backend_records_worker_pids():
    with Runtime(config=RuntimeConfig(backend="processes", max_workers=2)) as rt:
        _chain_workflow()
        trace = rt.trace()
        stats = rt.stats()
    pids = {r.pid for r in trace.records()}
    assert pids and None not in pids
    assert all(p != os.getpid() for p in pids), "no task was dispatched"
    backend_stats = stats["backend_stats"]
    assert backend_stats["backend"] == "processes"
    assert backend_stats["dispatched"] == stats["n_tasks"]
    assert backend_stats["worker_crashes"] == 0


def test_local_tasks_fall_back_inline():
    """Tasks defined in a local scope cannot be imported by a worker;
    the backend runs them inline (coordinator pid) with full
    semantics."""

    @task(returns=1)
    def local_double(x):
        return x * 2

    with Runtime(config=RuntimeConfig(backend="processes", max_workers=2)) as rt:
        assert wait_on(local_double(21)) == 42
        trace = rt.trace()
        stats = rt.stats()
    assert {r.pid for r in trace.records()} == {os.getpid()}
    assert stats["backend_stats"]["inline"] == 1


def test_unpicklable_arguments_fall_back_inline():
    import threading

    lock = threading.Lock()
    with Runtime(config=RuntimeConfig(backend="processes", max_workers=2)) as rt:
        # a lock cannot cross the pipe: dispatch falls back inline,
        # the task still runs with identical semantics
        fut = _passthrough_type(lock)
        assert wait_on(fut) is type(lock)
        stats = rt.stats()
    assert stats["backend_stats"]["serialization_fallbacks"] == 1


@task(returns=1)
def _passthrough_type(obj):
    return type(obj)
