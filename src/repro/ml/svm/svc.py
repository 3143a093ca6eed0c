"""In-memory C-Support Vector Classifier built on the SMO solver.

This is the estimator each cascade task trains on its partition —
scikit-learn's ``SVC`` in the paper, reimplemented from scratch here.
Binary classification (the paper's AF-vs-Normal task); arbitrary label
values are mapped to -1/+1 internally.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator
from repro.ml.svm.kernels import make_kernel, resolve_gamma
from repro.ml.svm.smo import smo_solve


class SVC(BaseEstimator):
    """Binary kernel SVM.

    Parameters
    ----------
    c:
        Regularisation (box) constant.
    kernel:
        'rbf' (default), 'linear' or 'poly'.
    gamma:
        Kernel coefficient: positive float, 'auto' (1/n_features) or
        'scale' (1/(n_features * var)).
    tol, max_iter:
        SMO stopping controls.
    """

    def __init__(
        self,
        c: float = 1.0,
        kernel: str = "rbf",
        gamma="auto",
        tol: float = 1e-3,
        max_iter: int = 20_000,
        degree: int = 3,
        coef0: float = 0.0,
    ):
        self.c = c
        self.kernel = kernel
        self.gamma = gamma
        self.tol = tol
        self.max_iter = max_iter
        self.degree = degree
        self.coef0 = coef0

    # ------------------------------------------------------------------
    def fit(self, x: np.ndarray, y: np.ndarray) -> "SVC":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y).ravel()
        if x.ndim != 2:
            raise ValueError("x must be 2-D")
        if len(x) != len(y):
            raise ValueError("x and y length mismatch")
        if len(x) == 0:
            raise ValueError("empty training set")
        if not np.isfinite(x).all():
            raise ValueError("x has non-finite values")
        classes = np.unique(y)
        if len(classes) == 1:
            # Degenerate partition (can happen inside a cascade with an
            # unlucky split): predict the single class everywhere.
            self.classes_ = classes
            self._single_class = classes[0]
            self.support_ = np.array([0])
            self.support_vectors_ = x[:1]
            self.support_labels_ = y[:1]
            self.dual_coef_ = np.zeros(1)
            self.intercept_ = 0.0
            self.objective_ = 0.0
            self.n_iter_ = 0
            return self
        if len(classes) != 2:
            raise ValueError(f"SVC is binary; got {len(classes)} classes")
        self._single_class = None
        self.classes_ = classes
        y_signed = np.where(y == classes[1], 1.0, -1.0)

        gamma = resolve_gamma(self.gamma, x)
        self._gamma_value = gamma
        kfun = make_kernel(self.kernel, gamma, self.degree, self.coef0)
        K = kfun(x, x)
        res = smo_solve(K, y_signed, C=self.c, tol=self.tol, max_iter=self.max_iter)

        sv = res.alpha > 1e-8
        if not sv.any():
            sv = np.zeros(len(y), dtype=bool)
            sv[0] = True
        self.support_ = np.flatnonzero(sv)
        self.support_vectors_ = x[sv]
        self.support_labels_ = y[sv]
        self.dual_coef_ = (res.alpha * y_signed)[sv]
        self.intercept_ = res.b
        self.objective_ = res.objective
        self.n_iter_ = res.n_iter
        return self

    # ------------------------------------------------------------------
    def decision_function(self, x: np.ndarray) -> np.ndarray:
        self._check_fitted("support_vectors_")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self._single_class is not None:
            sign = 1.0 if self._single_class == self.classes_[-1] else -1.0
            return np.full(len(x), sign)
        kfun = make_kernel(self.kernel, self._gamma_value, self.degree, self.coef0)
        return kfun(x, self.support_vectors_) @ self.dual_coef_ + self.intercept_

    def predict(self, x: np.ndarray) -> np.ndarray:
        scores = self.decision_function(x)
        if self._single_class is not None:
            return np.full(len(np.atleast_2d(x)), self._single_class)
        return np.where(scores >= 0, self.classes_[1], self.classes_[0])

    # ------------------------------------------------------------------
    def calibrate(self, x: np.ndarray, y: np.ndarray, max_iter: int = 200) -> "SVC":
        """Platt scaling: fit P(classes_[1] | score) = sigmoid(a*s + b)
        on held-out data so :meth:`predict_proba` is available.

        Enables the threshold tuning the paper's §V discusses (recall
        focus vs precision focus in stroke care).
        """
        self._check_fitted("support_vectors_")
        if self._single_class is not None:
            raise ValueError(
                f"calibrate needs two classes; this model was fit on one ({self._single_class!r})"
            )
        scores = self.decision_function(x)
        t = (np.asarray(y).ravel() == self.classes_[1]).astype(float)
        a, b = 1.0, 0.0
        lr = 0.1
        for _ in range(max_iter):
            p = 1.0 / (1.0 + np.exp(-np.clip(a * scores + b, -500, 500)))
            err = p - t
            ga = float(err @ scores) / len(t)
            gb = float(err.sum()) / len(t)
            a -= lr * ga
            b -= lr * gb
        self._platt = (a, b)
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """(n, 2) probabilities [P(classes_[0]), P(classes_[1])];
        requires a prior :meth:`calibrate` call."""
        self._check_fitted("support_vectors_")
        if not hasattr(self, "_platt"):
            raise RuntimeError("call calibrate(x, y) before predict_proba")
        a, b = self._platt
        s = self.decision_function(x)
        p1 = 1.0 / (1.0 + np.exp(-np.clip(a * s + b, -500, 500)))
        return np.column_stack([1.0 - p1, p1])

    def score(self, x: np.ndarray, y: np.ndarray) -> float:
        from repro.ml.metrics import accuracy_score

        return accuracy_score(np.asarray(y).ravel(), self.predict(x))
