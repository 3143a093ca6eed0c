"""Cascade Support Vector Machine — dislib's ``CascadeSVM`` analog.

The algorithm (paper §III-C.1, Fig. 3): split the input into N subsets
(the ds-array's row stripes), train an SVM on each, merge the resulting
support vectors in groups of ``cascade_arity`` and retrain, repeating
until a single support-vector set remains.  That closes one iteration;
the final support vectors are then merged back with the original
subsets and the cascade repeats, for ``max_iter`` iterations or until
the dual objective stabilises.

Every merge is a set union, as in dislib: each training row carries its
global row index as an id, and a task that receives one id more than
once (feedback support vectors already in its partition, or in two
merged sets) trains on the first copy only.  A set without repeats is
fitted exactly as it arrives.

Parallelism: one task per row stripe at the first layer, then a
reduction tree — exactly the structure of the paper's Fig. 4, with the
scalability ceiling in the reduction phase the paper discusses.
"""

from __future__ import annotations

import math
from numbers import Real

import numpy as np

import repro.dsarray as ds
from repro.ml.base import BaseEstimator, as_labels, validate_xy
from repro.ml.svm.svc import SVC
from repro.runtime import task, wait_on


def _fit_support(x: np.ndarray, y: np.ndarray, ids: np.ndarray, params: dict):
    """Fit an SVC on the set of rows ``ids`` names; return its support set.

    The rows arrive concatenated, possibly with one id several times
    (feedback support vectors already in the partition); the first row
    of each id is kept.  A set with no repeats reaches ``SVC.fit``
    unchanged.
    """
    _, first = np.unique(ids, return_index=True)
    if len(first) < len(ids):
        first.sort()
        x, y, ids = x[first], y[first], ids[first]
    model = SVC(**params).fit(x, y)
    return model.support_vectors_, model.support_labels_, ids[model.support_]


@task(returns=1)
def _train_partition(xblocks: list, yblocks: list, offset: int, extra, params: dict):
    """Train an SVC on one cascade partition; return its support set
    ``(support_x, support_y, support_ids)``.

    ``offset`` is the partition's first global row index, so row ``i``
    of the stripe has id ``offset + i``.  ``extra`` carries the support
    set fed back from the previous iteration (or None at the first).
    """
    x = np.hstack([np.asarray(b) for b in xblocks]) if len(xblocks) > 1 else np.asarray(xblocks[0])
    y = as_labels(np.vstack([np.asarray(b) for b in yblocks]) if len(yblocks) > 1 else yblocks[0])
    ids = np.arange(offset, offset + len(y))
    if extra is not None:
        sv_x, sv_y, sv_ids = extra
        x = np.vstack([x, sv_x])
        y = np.concatenate([y, sv_y])
        ids = np.concatenate([ids, sv_ids])
    return _fit_support(x, y, ids, params)


@task(returns=1)
def _merge_train(parts: list, params: dict):
    """Merge support-vector sets and retrain (one cascade reduction node)."""
    x = np.vstack([p[0] for p in parts])
    y = np.concatenate([p[1] for p in parts])
    ids = np.concatenate([p[2] for p in parts])
    return _fit_support(x, y, ids, params)


@task(returns=1)
def _final_model(part, params: dict):
    """Train the model returned to the user on the last support set."""
    x, y, _ = part
    return SVC(**params).fit(x, y)


@task(returns=1)
def _predict_stripe(model: SVC, xblocks: list):
    x = np.hstack([np.asarray(b) for b in xblocks]) if len(xblocks) > 1 else np.asarray(xblocks[0])
    return model.predict(x).reshape(-1, 1)


@task(returns=1)
def _count_correct(model: SVC, xblocks: list, yblocks: list):
    x = np.hstack([np.asarray(b) for b in xblocks]) if len(xblocks) > 1 else np.asarray(xblocks[0])
    y = as_labels(np.vstack([np.asarray(b) for b in yblocks]) if len(yblocks) > 1 else yblocks[0])
    return np.array([np.sum(model.predict(x) == y), len(y)])


_KERNELS = ("linear", "rbf", "poly")


def _finite_number(value) -> bool:
    """A finite real number that is not a bool."""
    return (
        isinstance(value, Real)
        and not isinstance(value, (bool, np.bool_))
        and math.isfinite(value)
    )


class CascadeSVM(BaseEstimator):
    """Distributed cascade SVM over ds-arrays.

    Parameters
    ----------
    cascade_arity:
        How many support-vector sets merge into one reduction task.
    max_iter:
        Maximum cascade iterations (feedback rounds).
    tol:
        Relative objective-change threshold for convergence (finite,
        >= 0).
    kernel, c, gamma:
        Passed through to the per-task :class:`SVC`: ``kernel`` is
        'linear', 'rbf' or 'poly'; ``c`` a finite number > 0; ``gamma``
        a positive number, 'auto' or 'scale'.  Checked here, so a bad
        value is a ``ValueError`` at construction, not a failed task.
    check_convergence:
        When False, skip the synchronisation after each iteration and
        always run ``max_iter`` rounds (more parallelism, like dislib).
    """

    def __init__(
        self,
        cascade_arity: int = 2,
        max_iter: int = 5,
        tol: float = 1e-3,
        kernel: str = "rbf",
        c: float = 1.0,
        gamma="auto",
        check_convergence: bool = True,
    ):
        if cascade_arity < 2:
            raise ValueError("cascade_arity must be >= 2")
        if max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not (_finite_number(c) and c > 0):
            raise ValueError(f"c must be a finite number > 0; got {c!r}")
        if not (_finite_number(tol) and tol >= 0):
            raise ValueError(f"tol must be a finite number >= 0; got {tol!r}")
        if kernel not in _KERNELS:
            raise ValueError(f"kernel must be one of {', '.join(_KERNELS)}; got {kernel!r}")
        if isinstance(gamma, str):
            gamma_ok = gamma in ("auto", "scale")
        else:
            gamma_ok = _finite_number(gamma) and gamma > 0
        if not gamma_ok:
            raise ValueError(f"gamma must be a positive number, 'auto' or 'scale'; got {gamma!r}")
        self.cascade_arity = cascade_arity
        self.max_iter = max_iter
        self.tol = tol
        self.kernel = kernel
        self.c = c
        self.gamma = gamma
        self.check_convergence = check_convergence

    def _svc_params(self) -> dict:
        return {"kernel": self.kernel, "c": self.c, "gamma": self.gamma}

    # ------------------------------------------------------------------
    def fit(self, x: ds.Array, y: ds.Array) -> "CascadeSVM":
        validate_xy(x, y)
        params = self._svc_params()
        x_stripes = list(x.iter_row_stripes())
        y_stripes = list(y.iter_row_stripes())
        offsets = x.stripe_offsets()

        feedback = None
        last_obj = None
        self.n_iter_ = 0
        self.converged_ = False
        for _ in range(self.max_iter):
            # first layer: one task per original partition (+ feedback SVs)
            groups = [
                _train_partition(xb, yb, offset, feedback, params)
                for xb, yb, offset in zip(x_stripes, y_stripes, offsets)
            ]
            # reduction tree
            while len(groups) > 1:
                groups = [
                    _merge_train(groups[i : i + self.cascade_arity], params)
                    if len(groups[i : i + self.cascade_arity]) > 1
                    else groups[i]
                    for i in range(0, len(groups), self.cascade_arity)
                ]
            feedback = groups[0]
            self.n_iter_ += 1
            if self.check_convergence:
                model = wait_on(_final_model(feedback, params))
                obj = model.objective_
                if last_obj is not None and abs(obj - last_obj) <= self.tol * abs(last_obj):
                    self.converged_ = True
                    self._model = model
                    break
                last_obj = obj
                self._model = model
        if not self.check_convergence:
            self._model = wait_on(_final_model(feedback, params))
        self.classes_ = self._model.classes_
        return self

    # ------------------------------------------------------------------
    def predict(self, x: ds.Array) -> ds.Array:
        self._check_fitted("_model")
        blocks = [
            [_predict_stripe(self._model, stripe)] for stripe in x.iter_row_stripes()
        ]
        return ds.Array(
            blocks,
            shape=(x.shape[0], 1),
            block_size=(x.block_size[0], 1),
        )

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        """In-memory decision scores (convenience for analysis)."""
        self._check_fitted("_model")
        return self._model.decision_function(x)

    def score(self, x: ds.Array, y: ds.Array) -> float:
        """Mean accuracy, computed with one task per stripe plus a local
        reduction (the paper's "calculates the score" step)."""
        self._check_fitted("_model")
        validate_xy(x, y)
        counts = wait_on(
            [
                _count_correct(self._model, xb, yb)
                for xb, yb in zip(x.iter_row_stripes(), y.iter_row_stripes())
            ]
        )
        total = np.sum(counts, axis=0)
        return float(total[0] / total[1])
