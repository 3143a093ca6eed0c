"""CascadeSVM: correctness, cascade structure, graph shape (paper Fig. 4)."""

from __future__ import annotations

import numpy as np
import pytest

import repro.dsarray as ds
from repro.ml import CascadeSVM
from repro.ml.base import NotFittedError
from repro.ml.svm.svc import SVC
from repro.runtime import Runtime
from tests.ml.conftest import as_ds, make_blobs


def test_fit_predict_eager(ds_blobs):
    dx, dy = ds_blobs
    clf = CascadeSVM(max_iter=3).fit(dx, dy)
    acc = clf.score(dx, dy)
    assert acc > 0.9


def test_predict_returns_ds_array(ds_blobs):
    dx, dy = ds_blobs
    clf = CascadeSVM(max_iter=2).fit(dx, dy)
    pred = clf.predict(dx)
    assert isinstance(pred, ds.Array)
    assert pred.shape == (dx.shape[0], 1)
    labels = pred.collect().ravel()
    assert set(np.unique(labels)) <= {0.0, 1.0}


def test_accuracy_under_threads():
    x, y = make_blobs(n=240, d=4, sep=3.0, seed=5)
    with Runtime(executor="threads", max_workers=4):
        dx, dy = as_ds(x, y, row_block=40)
        clf = CascadeSVM(max_iter=3).fit(dx, dy)
        acc = clf.score(dx, dy)
    assert acc > 0.9


def test_convergence_flag(ds_blobs):
    dx, dy = ds_blobs
    clf = CascadeSVM(max_iter=10, tol=1e-2).fit(dx, dy)
    assert clf.converged_
    assert clf.n_iter_ <= 10


def test_no_convergence_check_runs_max_iter(ds_blobs):
    dx, dy = ds_blobs
    clf = CascadeSVM(max_iter=2, check_convergence=False).fit(dx, dy)
    assert clf.n_iter_ == 2
    assert clf.score(dx, dy) > 0.9


def test_cascade_arity_param(ds_blobs):
    dx, dy = ds_blobs
    clf = CascadeSVM(cascade_arity=4, max_iter=2).fit(dx, dy)
    assert clf.score(dx, dy) > 0.9


def test_invalid_params():
    with pytest.raises(ValueError):
        CascadeSVM(cascade_arity=1)
    with pytest.raises(ValueError):
        CascadeSVM(max_iter=0)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"c": 0}, "c must be"),
        ({"c": -1.0}, "c must be"),
        ({"c": float("nan")}, "c must be"),
        ({"c": float("inf")}, "c must be"),
        ({"c": "1"}, "c must be"),
        ({"c": True}, "c must be"),
        ({"tol": -1}, "tol must be"),
        ({"tol": float("nan")}, "tol must be"),
        ({"tol": float("inf")}, "tol must be"),
        ({"tol": None}, "tol must be"),
        ({"kernel": "bogus"}, "kernel must be"),
        ({"kernel": "RBF"}, "kernel must be"),
        ({"gamma": -2}, "gamma must be"),
        ({"gamma": 0.0}, "gamma must be"),
        ({"gamma": float("inf")}, "gamma must be"),
        ({"gamma": "scal"}, "gamma must be"),
        ({"gamma": None}, "gamma must be"),
        ({"gamma": False}, "gamma must be"),
    ],
)
def test_bad_svc_params_fail_at_construction(kwargs, match):
    """A bad value is a ValueError from the constructor, not a cancelled
    task at fit time (nor, for tol, a silent run of every iteration)."""
    with pytest.raises(ValueError, match=match):
        CascadeSVM(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"c": 2, "tol": 0, "kernel": "linear", "gamma": 3},
        {"c": np.float64(0.5), "tol": np.float32(1e-2), "kernel": "poly", "gamma": "scale"},
        {"kernel": "rbf", "gamma": np.float64(0.1)},
    ],
)
def test_good_svc_params_accepted(kwargs):
    clf = CascadeSVM(**kwargs)
    assert {k: getattr(clf, k) for k in kwargs} == kwargs


def test_not_fitted(ds_blobs):
    dx, dy = ds_blobs
    with pytest.raises(NotFittedError):
        CascadeSVM().predict(dx)
    with pytest.raises(NotFittedError):
        CascadeSVM().score(dx, dy)


def test_validation_mismatched_blocks():
    x, y = make_blobs(n=100)
    dx = ds.array(x, (40, 3))
    dy = ds.array(y.reshape(-1, 1), (25, 1))
    with pytest.raises(ValueError):
        CascadeSVM().fit(dx, dy)


def test_graph_structure_matches_cascade():
    """First layer has one task per stripe; reduction tree follows
    (paper Fig. 4): with 8 stripes and arity 2 -> 8 + 4 + 2 + 1 merges
    minus the final one being _final_model."""
    x, y = make_blobs(n=320, d=3, sep=3.0)
    with Runtime(executor="sequential") as rt:
        dx, dy = as_ds(x, y, row_block=40)
        CascadeSVM(max_iter=1, check_convergence=False).fit(dx, dy)
        counts = rt.graph.count_by_name()
    assert counts["_train_partition"] == 8
    assert counts["_merge_train"] == 4 + 2 + 1
    assert counts["_final_model"] == 1


def test_graph_depth_grows_with_lower_arity():
    x, y = make_blobs(n=320, d=3, sep=3.0)

    def depth_with_arity(arity):
        with Runtime(executor="sequential") as rt:
            dx, dy = as_ds(x, y, row_block=40)
            CascadeSVM(cascade_arity=arity, max_iter=1, check_convergence=False).fit(dx, dy)
            return rt.graph.depth()

    assert depth_with_arity(2) > depth_with_arity(8)


def test_multiple_iterations_feed_back_svs():
    """More iterations must not hurt accuracy on separable data."""
    x, y = make_blobs(n=160, d=3, sep=3.0, seed=11)
    dx, dy = as_ds(x, y)
    acc1 = CascadeSVM(max_iter=1, check_convergence=False).fit(dx, dy).score(dx, dy)
    acc3 = CascadeSVM(max_iter=3, check_convergence=False).fit(dx, dy).score(dx, dy)
    assert acc3 >= acc1 - 0.05


def test_decision_function_in_memory(ds_blobs, blobs):
    dx, dy = ds_blobs
    x, y = blobs
    clf = CascadeSVM(max_iter=2).fit(dx, dy)
    scores = clf.decision_function(x[:10])
    assert scores.shape == (10,)


def test_single_stripe_degenerates_to_svc():
    x, y = make_blobs(n=60, d=3, sep=3.0)
    dx = ds.array(x, (60, 3))
    dy = ds.array(y.reshape(-1, 1), (60, 1))
    clf = CascadeSVM(max_iter=1).fit(dx, dy)
    assert clf.score(dx, dy) > 0.9


# ----------------------------------------------------------------------
# the cascade merges sets (paper §III-C.1): one copy of each row per fit
# ----------------------------------------------------------------------
def _reference_cascade(x, y, row_block, arity, max_iter, tol, check_convergence, union):
    """The cascade over explicit lists of global row indices, in memory.

    With ``union`` a merge is a set union (first occurrence first) —
    what ``CascadeSVM`` does.  Without it a merge appends, repeats and
    all — the cascade as it was before rows carried ids, kept as the
    oracle for fits whose sets never held a repeat.  Returns the final
    model, its support ids, ``n_iter`` and every fitted id list.
    """
    params = {"kernel": "rbf", "c": 1.0, "gamma": "auto"}
    fitted = []

    def merge(*id_lists):
        ids = [i for ids in id_lists for i in ids]
        return list(dict.fromkeys(ids)) if union else ids

    def fit(ids):
        fitted.append(ids)
        return SVC(**params).fit(x[ids], y[ids])

    def support(ids):
        return [ids[i] for i in fit(ids).support_]

    partitions = [list(range(r0, min(r0 + row_block, len(x)))) for r0 in range(0, len(x), row_block)]
    feedback, last_obj, n_iter, model = [], None, 0, None
    for _ in range(max_iter):
        groups = [support(merge(p, feedback)) for p in partitions]
        while len(groups) > 1:
            groups = [
                support(merge(*groups[i : i + arity])) if len(groups[i : i + arity]) > 1 else groups[i]
                for i in range(0, len(groups), arity)
            ]
        feedback = groups[0]
        n_iter += 1
        if check_convergence:
            model = fit(feedback)
            if last_obj is not None and abs(model.objective_ - last_obj) <= tol * abs(last_obj):
                break
            last_obj = model.objective_
    if not check_convergence:
        model = fit(feedback)
    return model, [feedback[i] for i in model.support_], n_iter, fitted


def _row_ids(x, rows):
    """Global ids of *rows* (x's rows are distinct)."""
    index = {row.tobytes(): i for i, row in enumerate(x)}
    return [index[row.tobytes()] for row in rows]


@pytest.fixture()
def recorded_fits(monkeypatch):
    """Every training set ``SVC.fit`` sees, in call order."""
    seen = []
    fit = SVC.fit

    def recording_fit(self, x, y):
        seen.append(np.array(x, copy=True))
        return fit(self, x, y)

    monkeypatch.setattr(SVC, "fit", recording_fit)
    return seen


CASCADES = [
    pytest.param(n_rows, row_block, arity, check, id=f"{n_rows // row_block}parts-arity{arity}-check{check}")
    for n_rows, row_block in ((200, 50), (200, 40))
    for arity in (2, 3)
    for check in (True, False)
]


@pytest.mark.parametrize("n_rows, row_block, arity, check", CASCADES)
def test_no_cascade_task_fits_a_repeated_row(recorded_fits, n_rows, row_block, arity, check):
    x, y = make_blobs(n=n_rows, d=4, sep=1.5, seed=3)
    clf = CascadeSVM(cascade_arity=arity, max_iter=3, check_convergence=check)
    clf.fit(*as_ds(x, y, row_block=row_block, col_block=4))
    assert clf.n_iter_ >= 2, "the feedback merge was never exercised"
    assert recorded_fits
    for rows in list(recorded_fits):
        assert len(np.unique(rows, axis=0)) == len(rows)
    # the append-based merge would have fitted repeats here
    *_, appended = _reference_cascade(x, y, row_block, arity, 3, 1e-3, check, union=False)
    assert any(len(set(ids)) < len(ids) for ids in appended)


@pytest.mark.parametrize("n_rows, row_block, arity, check", CASCADES)
def test_cascade_matches_the_set_oracle(recorded_fits, n_rows, row_block, arity, check):
    """Same fitted sets, same support ids, bit-equal decisions as the
    cascade written over explicit index sets."""
    x, y = make_blobs(n=n_rows, d=4, sep=1.5, seed=3)
    clf = CascadeSVM(cascade_arity=arity, max_iter=3, check_convergence=check)
    clf.fit(*as_ds(x, y, row_block=row_block, col_block=4))
    fitted = [_row_ids(x, rows) for rows in recorded_fits]
    ref_model, ref_support, ref_iter, ref_fitted = _reference_cascade(
        x, y, row_block, arity, 3, 1e-3, check, union=True
    )
    assert clf.n_iter_ == ref_iter
    assert fitted == ref_fitted
    assert _row_ids(x, clf._model.support_vectors_) == ref_support
    assert clf.decision_function(x).tobytes() == ref_model.decision_function(x).tobytes()


@pytest.mark.parametrize("n_rows, row_block, arity", [(200, 50, 2), (200, 40, 3), (320, 40, 2)])
def test_one_iteration_is_byte_equal_to_the_append_merge(n_rows, row_block, arity):
    """With ``max_iter=1`` no set holds a repeat, so the fit is the
    append-based cascade's, byte for byte (Fig. 11a's configuration)."""
    x, y = make_blobs(n=n_rows, d=4, sep=1.5, seed=7)
    for check in (True, False):
        clf = CascadeSVM(cascade_arity=arity, max_iter=1, check_convergence=check)
        clf.fit(*as_ds(x, y, row_block=row_block, col_block=4))
        ref_model, *_ = _reference_cascade(x, y, row_block, arity, 1, 1e-3, check, union=False)
        assert clf.decision_function(x).tobytes() == ref_model.decision_function(x).tobytes()
        assert clf._model.support_vectors_.tobytes() == ref_model.support_vectors_.tobytes()


def test_one_partition_converges_on_its_second_iteration(recorded_fits):
    """Iteration 2 merges iteration 1's support vectors back into the
    partition they came from: the same set, so the same objective."""
    x, y = make_blobs(n=60, d=3, sep=1.5, seed=2)
    clf = CascadeSVM(max_iter=5, tol=0.0).fit(ds.array(x, (60, 3)), ds.array(y.reshape(-1, 1), (60, 1)))
    assert clf.n_iter_ == 2
    assert clf.converged_
    # partition, final model, partition, final model
    assert len(recorded_fits) == 4
    assert recorded_fits[2].tobytes() == recorded_fits[0].tobytes()
    assert recorded_fits[3].tobytes() == recorded_fits[1].tobytes()
