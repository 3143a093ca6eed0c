"""The tutorial's ridge-regression walkthrough must actually work
(docs/tutorial.md is executable documentation)."""

from __future__ import annotations

import numpy as np
import pytest

import repro.dsarray as ds
from repro.cluster import NodeSpec, core_sweep
from repro.ml.base import BaseEstimator, validate_xy
from repro.runtime import Runtime, task, wait_on


@task(returns=1)
def partial_normal_eq(xblocks, yblocks):
    x = np.hstack(xblocks) if len(xblocks) > 1 else np.asarray(xblocks[0])
    y = np.asarray(yblocks[0]).ravel()
    return x.T @ x, x.T @ y


@task(returns=1)
def solve_ridge(partials, lam):
    xtx = sum(p[0] for p in partials)
    xty = sum(p[1] for p in partials)
    return np.linalg.solve(xtx + lam * np.eye(len(xtx)), xty)


class RidgeRegression(BaseEstimator):
    def __init__(self, lam: float = 1.0):
        self.lam = lam

    def fit(self, x: ds.Array, y: ds.Array):
        validate_xy(x, y)
        partials = [
            partial_normal_eq(xs, ys)
            for xs, ys in zip(x.iter_row_stripes(), y.iter_row_stripes())
        ]
        self.coef_ = wait_on(solve_ridge(partials, self.lam))
        return self

    def predict(self, x: ds.Array):
        return x.collect() @ self.coef_


@pytest.fixture()
def regression_data(rng):
    x = rng.standard_normal((1000, 10))
    w_true = rng.standard_normal(10)
    y = (x @ w_true + 0.01 * rng.standard_normal(1000)).reshape(-1, 1)
    return x, y, w_true


def test_eager_recovers_weights(regression_data):
    x, y, w_true = regression_data
    dx, dy = ds.array(x, (100, 10)), ds.array(y, (100, 1))
    model = RidgeRegression(1e-6).fit(dx, dy)
    np.testing.assert_allclose(model.coef_, w_true, atol=1e-2)


def test_threaded_same_answer(regression_data):
    x, y, w_true = regression_data
    with Runtime(executor="threads", max_workers=4) as rt:
        dx, dy = ds.array(x, (100, 10)), ds.array(y, (100, 1))
        model = RidgeRegression(1e-6).fit(dx, dy)
        counts = rt.graph.count_by_name()
    np.testing.assert_allclose(model.coef_, w_true, atol=1e-2)
    assert counts["partial_normal_eq"] == 10
    assert counts["solve_ridge"] == 1


def test_trace_replay_path(regression_data):
    x, y, _ = regression_data
    with Runtime(executor="threads", max_workers=4) as rt:
        dx, dy = ds.array(x, (100, 10)), ds.array(y, (100, 1))
        RidgeRegression(1e-6).fit(dx, dy)
        rt.barrier()
        trace = rt.trace()
    points = core_sweep(trace, NodeSpec(cores=48), [1, 2, 4])
    assert points[-1].makespan <= points[0].makespan * 1.01


def test_clone_and_params_work():
    model = RidgeRegression(lam=2.5)
    clone = model.clone()
    assert clone.lam == 2.5 and clone is not model


@task(returns=1)
def normalize(block):
    return (block - block.mean()) / block.std()


def test_data_plane_walkthrough(small_threshold):
    """Section 6: put/refs/submit_many/release on the process backend."""
    from repro.runtime import RuntimeConfig

    cfg = RuntimeConfig(backend="processes", max_workers=2)
    with Runtime(config=cfg) as rt:
        x = np.random.default_rng(0).normal(size=(256, 16))
        ref = rt.put(x)
        futs = [normalize(ref) for _ in range(3)]
        futs += rt.submit_many([normalize.defer(ref) for _ in range(3)])
        results = wait_on(futs)
        rt.release(ref)
        stats = rt.stats()["backend_stats"]
    expected = (x - x.mean()) / x.std()
    for got in results:
        np.testing.assert_array_equal(got, expected)
    assert stats["store_bytes_saved"] > 0
