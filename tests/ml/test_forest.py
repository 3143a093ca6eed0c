"""Random forest: accuracy, distributed structure, distr_depth task shape."""

from __future__ import annotations

import numpy as np
import pytest

import repro.dsarray as ds
from repro.ml import RandomForestClassifier
from repro.ml.base import NotFittedError
from repro.runtime import Runtime
from tests.ml.conftest import as_ds, make_blobs


def test_fits_blobs_eager(ds_blobs):
    dx, dy = ds_blobs
    clf = RandomForestClassifier(n_estimators=10, random_state=0).fit(dx, dy)
    assert clf.score(dx, dy) > 0.95


def test_fits_under_threads():
    x, y = make_blobs(n=200, d=4, sep=2.5, seed=6)
    with Runtime(executor="threads", max_workers=4):
        dx, dy = as_ds(x, y)
        clf = RandomForestClassifier(n_estimators=12, distr_depth=2, random_state=1).fit(dx, dy)
        acc = clf.score(dx, dy)
    assert acc > 0.9


def test_predict_proba_shape_and_normalisation(ds_blobs):
    dx, dy = ds_blobs
    clf = RandomForestClassifier(n_estimators=5, random_state=0).fit(dx, dy)
    probs = clf.predict_proba(dx)
    assert probs.shape == (dx.shape[0], 2)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-9)


def test_generalisation():
    x, y = make_blobs(n=400, d=5, sep=2.0, seed=8)
    dx_tr, dy_tr = as_ds(x[:300], y[:300])
    dx_te, dy_te = as_ds(x[300:], y[300:])
    clf = RandomForestClassifier(n_estimators=20, random_state=0).fit(dx_tr, dy_tr)
    assert clf.score(dx_te, dy_te) > 0.85


def test_more_estimators_not_worse():
    x, y = make_blobs(n=300, d=5, sep=1.2, seed=10)
    dx_tr, dy_tr = as_ds(x[:200], y[:200])
    dx_te, dy_te = as_ds(x[200:], y[200:])
    acc1 = RandomForestClassifier(n_estimators=1, random_state=0).fit(dx_tr, dy_tr).score(dx_te, dy_te)
    acc20 = RandomForestClassifier(n_estimators=25, random_state=0).fit(dx_tr, dy_tr).score(dx_te, dy_te)
    assert acc20 >= acc1 - 0.05


def test_task_count_independent_of_block_size():
    """The paper's key RF property: block size does not change the
    number of tasks (unlike CSVM/KNN)."""
    x, y = make_blobs(n=120, d=3)

    def count_tasks(row_block):
        with Runtime(executor="sequential") as rt:
            dx, dy = as_ds(x, y, row_block=row_block)
            RandomForestClassifier(n_estimators=4, distr_depth=1, random_state=0).fit(dx, dy)
            counts = rt.graph.count_by_name()
        return {
            k: v
            for k, v in counts.items()
            if k in ("_bootstrap", "_node_split", "_build_subtree", "_join_node")
        }

    assert count_tasks(row_block=20) == count_tasks(row_block=60)


def test_task_count_scales_with_distr_depth():
    x, y = make_blobs(n=120, d=3)

    def split_tasks(distr_depth):
        with Runtime(executor="sequential") as rt:
            dx, dy = as_ds(x, y)
            RandomForestClassifier(
                n_estimators=2, distr_depth=distr_depth, random_state=0
            ).fit(dx, dy)
            return rt.graph.count_by_name().get("_node_split", 0)

    assert split_tasks(0) == 0
    assert split_tasks(1) == 2  # one root split per estimator
    assert split_tasks(2) == 2 * 3  # root + 2 children per estimator


def test_distr_depth_zero_single_task_per_tree():
    x, y = make_blobs(n=100, d=3)
    with Runtime(executor="sequential") as rt:
        dx, dy = as_ds(x, y)
        RandomForestClassifier(n_estimators=3, distr_depth=0, random_state=0).fit(dx, dy)
        counts = rt.graph.count_by_name()
    assert counts["_build_subtree"] == 3
    assert "_node_split" not in counts


def test_max_depth_respected():
    from tests.ml.conftest import tree_depth

    x, y = make_blobs(n=200, sep=0.8, seed=3)
    dx, dy = as_ds(x, y)
    clf = RandomForestClassifier(
        n_estimators=4, distr_depth=1, max_depth=3, random_state=0
    ).fit(dx, dy)
    from repro.runtime import wait_on

    for t in wait_on(clf._trees):
        assert tree_depth(t) <= 3


def test_deterministic_given_seed(ds_blobs):
    dx, dy = ds_blobs
    a = RandomForestClassifier(n_estimators=6, random_state=7).fit(dx, dy).predict(dx)
    b = RandomForestClassifier(n_estimators=6, random_state=7).fit(dx, dy).predict(dx)
    np.testing.assert_array_equal(a, b)


def test_invalid_params():
    with pytest.raises(ValueError):
        RandomForestClassifier(n_estimators=0)
    with pytest.raises(ValueError):
        RandomForestClassifier(distr_depth=-1)


def test_not_fitted(ds_blobs):
    dx, _ = ds_blobs
    with pytest.raises(NotFittedError):
        RandomForestClassifier().predict(dx)


def test_string_labels():
    x, y = make_blobs(n=80, sep=3.0, labels=("N", "AF"))
    dx, dy = as_ds(x, y.astype(object))
    clf = RandomForestClassifier(n_estimators=5, random_state=0).fit(dx, dy)
    assert set(clf.predict(dx)) <= {"N", "AF"}
