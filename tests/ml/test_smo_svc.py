"""SMO solver and SVC estimator tests, including KKT invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.svm import SVC, smo_solve
from repro.ml.svm.kernels import (
    linear_kernel,
    make_kernel,
    poly_kernel,
    rbf_kernel,
    resolve_gamma,
)
from repro.ml.svm.smo import SMOResult
from tests.ml.conftest import make_blobs


class TestKernels:
    def test_linear(self, rng):
        x = rng.standard_normal((5, 3))
        np.testing.assert_allclose(linear_kernel(x, x), x @ x.T)

    def test_rbf_diagonal_is_one(self, rng):
        x = rng.standard_normal((6, 4))
        K = rbf_kernel(x, x, gamma=0.5)
        np.testing.assert_allclose(np.diag(K), 1.0)
        assert (K > 0).all() and (K <= 1).all()

    def test_rbf_matches_naive(self, rng):
        x = rng.standard_normal((4, 3))
        z = rng.standard_normal((5, 3))
        K = rbf_kernel(x, z, gamma=0.7)
        naive = np.exp(
            -0.7 * np.array([[np.sum((a - b) ** 2) for b in z] for a in x])
        )
        np.testing.assert_allclose(K, naive, rtol=1e-10)

    def test_poly(self, rng):
        x = rng.standard_normal((3, 2))
        K = poly_kernel(x, x, gamma=1.0, degree=2, coef0=1.0)
        np.testing.assert_allclose(K, (x @ x.T + 1.0) ** 2)

    def test_resolve_gamma(self, rng):
        x = rng.standard_normal((10, 4))
        assert resolve_gamma("auto", x) == pytest.approx(0.25)
        assert resolve_gamma(0.3, x) == 0.3
        assert resolve_gamma("scale", x) == pytest.approx(1.0 / (4 * x.var()))
        with pytest.raises(ValueError):
            resolve_gamma(-1.0, x)
        with pytest.raises(ValueError):
            resolve_gamma("bad", x)

    def test_make_kernel_unknown(self):
        with pytest.raises(ValueError):
            make_kernel("sigmoid", 1.0)


class TestSMO:
    def test_separable_2d(self):
        """Hand-crafted separable problem with a known margin."""
        x = np.array([[0.0, 0.0], [0.0, 1.0], [2.0, 0.0], [2.0, 1.0]])
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        K = x @ x.T
        res = smo_solve(K, y, C=10.0)
        assert res.converged
        # equality constraint holds
        assert float(y @ res.alpha) == pytest.approx(0.0, abs=1e-9)
        # decision separates the data
        coef = res.alpha * y
        scores = K @ coef + res.b
        assert (np.sign(scores) == y).all()

    def test_box_constraint_respected(self, rng):
        x, y01 = make_blobs(n=80, d=3, sep=0.5, seed=3)
        y = np.where(y01 > 0, 1.0, -1.0)
        K = rbf_kernel(x, x, 0.3)
        res = smo_solve(K, y, C=0.7)
        assert (res.alpha >= -1e-9).all()
        assert (res.alpha <= 0.7 + 1e-9).all()

    def test_objective_negative_or_zero(self, rng):
        x, y01 = make_blobs(n=60, d=3, seed=1)
        y = np.where(y01 > 0, 1.0, -1.0)
        res = smo_solve(x @ x.T, y, C=1.0)
        assert res.objective <= 1e-9

    def test_input_validation(self):
        with pytest.raises(ValueError):
            smo_solve(np.eye(3), np.array([1.0, -1.0]), C=1.0)
        with pytest.raises(ValueError):
            smo_solve(np.eye(2), np.array([1.0, 2.0]), C=1.0)
        with pytest.raises(ValueError):
            smo_solve(np.eye(2), np.array([1.0, -1.0]), C=0.0)

    def test_max_iter_cap(self):
        x, y01 = make_blobs(n=100, d=4, sep=0.1, seed=2)
        y = np.where(y01 > 0, 1.0, -1.0)
        res = smo_solve(rbf_kernel(x, x, 0.25), y, C=1.0, max_iter=3)
        assert res.n_iter <= 3

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_kkt_complementarity(self, seed):
        """Property: at the solution, free vectors satisfy |y f(x)-1|
        small, and the equality constraint holds."""
        x, y01 = make_blobs(n=50, d=3, sep=2.5, seed=seed)
        y = np.where(y01 > 0, 1.0, -1.0)
        K = rbf_kernel(x, x, 0.5)
        C = 1.0
        res = smo_solve(K, y, C=C, tol=1e-4)
        assert abs(float(y @ res.alpha)) < 1e-8
        f = K @ (res.alpha * y) + res.b
        free = (res.alpha > 1e-6) & (res.alpha < C - 1e-6)
        if free.any():
            assert np.abs(y[free] * f[free] - 1.0).max() < 5e-2


def reference_smo_solve(K, y, C, tol=1e-3, max_iter=20_000):
    """``smo_solve`` as it was before the mask-based selection: the
    working set picked through ``flatnonzero`` index lists and boolean
    copies of the violations.  Kept whole as the oracle (the selection
    decides every later iterate, so only full solves compare)."""
    y = np.asarray(y, dtype=float)
    n = len(y)
    _TAU = 1e-12
    alpha = np.zeros(n)
    grad = -np.ones(n)  # G = Qa - e at a = 0
    Q = K * np.outer(y, y)

    n_iter = 0
    converged = False
    while n_iter < max_iter:
        up = ((y == 1) & (alpha < C - _TAU)) | ((y == -1) & (alpha > _TAU))
        low = ((y == -1) & (alpha < C - _TAU)) | ((y == 1) & (alpha > _TAU))
        if not up.any() or not low.any():
            converged = True
            break
        viol = -y * grad
        i = int(np.flatnonzero(up)[np.argmax(viol[up])])
        j = int(np.flatnonzero(low)[np.argmin(viol[low])])
        if viol[i] - viol[j] < tol:
            converged = True
            break

        old_i, old_j = alpha[i], alpha[j]
        if y[i] != y[j]:
            quad = max(Q[i, i] + Q[j, j] + 2.0 * Q[i, j], _TAU)
            delta = (-grad[i] - grad[j]) / quad
            diff = alpha[i] - alpha[j]
            alpha[i] += delta
            alpha[j] += delta
            if diff > 0:
                if alpha[j] < 0:
                    alpha[j] = 0.0
                    alpha[i] = diff
            else:
                if alpha[i] < 0:
                    alpha[i] = 0.0
                    alpha[j] = -diff
            if diff > 0:
                if alpha[i] > C:
                    alpha[i] = C
                    alpha[j] = C - diff
            else:
                if alpha[j] > C:
                    alpha[j] = C
                    alpha[i] = C + diff
        else:
            quad = max(Q[i, i] + Q[j, j] - 2.0 * Q[i, j], _TAU)
            delta = (grad[i] - grad[j]) / quad
            total = alpha[i] + alpha[j]
            alpha[i] -= delta
            alpha[j] += delta
            if total > C:
                if alpha[i] > C:
                    alpha[i] = C
                    alpha[j] = total - C
                elif alpha[j] > C:
                    alpha[j] = C
                    alpha[i] = total - C
            else:
                if alpha[j] < 0:
                    alpha[j] = 0.0
                    alpha[i] = total
                elif alpha[i] < 0:
                    alpha[i] = 0.0
                    alpha[j] = total
        d_i, d_j = alpha[i] - old_i, alpha[j] - old_j
        if d_i == 0.0 and d_j == 0.0:
            converged = True
            break
        grad += Q[:, i] * d_i + Q[:, j] * d_j
        n_iter += 1

    # Bias from free support vectors: y_i = sum_j a_j y_j K_ij + b.
    coef = alpha * y
    free = (alpha > 1e-8) & (alpha < C - 1e-8)
    if free.any():
        b = float(np.mean(y[free] - K[free] @ coef))
    else:
        viol = -y * grad
        up = ((y == 1) & (alpha < C - _TAU)) | ((y == -1) & (alpha > _TAU))
        low = ((y == -1) & (alpha < C - _TAU)) | ((y == 1) & (alpha > _TAU))
        hi = viol[up].max() if up.any() else 0.0
        lo = viol[low].min() if low.any() else 0.0
        b = float((hi + lo) / 2.0)

    objective = float(0.5 * alpha @ (Q @ alpha) - alpha.sum())
    return SMOResult(alpha=alpha, b=b, objective=objective, n_iter=n_iter, converged=converged)


def smo_bytes(res):
    return (
        res.alpha.tobytes(),
        np.float64(res.b).tobytes(),
        np.float64(res.objective).tobytes(),
        res.n_iter,
        res.converged,
    )


class TestSMOMatchesReference:
    """Mask-selected pairs against the index-list selection they
    replaced: every field of the result equal, floats by their bytes."""

    @pytest.mark.parametrize("C", [0.1, 1.0, 10.0])
    def test_random_problems(self, C):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n, d = int(rng.integers(2, 60)), int(rng.integers(1, 6))
            x = rng.standard_normal((n, d))
            if seed % 4 == 0:  # duplicated rows: equal violations, ties
                x[n // 2 :] = x[: n - n // 2]
            y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
            K = rbf_kernel(x, x, 0.5) if seed % 2 else x @ x.T
            assert smo_bytes(smo_solve(K, y, C)) == smo_bytes(reference_smo_solve(K, y, C)), seed

    @pytest.mark.parametrize("label", [1.0, -1.0])
    def test_one_sided_exit(self, label):
        """One class only: I_low (I_up) is empty at alpha = 0 and the
        solver leaves before selecting a pair."""
        x = np.random.default_rng(0).standard_normal((6, 2))
        y = np.full(6, label)
        got, want = smo_solve(x @ x.T, y, 1.0), reference_smo_solve(x @ x.T, y, 1.0)
        assert (got.n_iter, got.converged) == (0, True)
        assert smo_bytes(got) == smo_bytes(want)

    def test_max_iter_cap(self):
        x, y01 = make_blobs(n=100, d=4, sep=0.1, seed=2)
        y = np.where(y01 > 0, 1.0, -1.0)
        K = rbf_kernel(x, x, 0.25)
        assert smo_bytes(smo_solve(K, y, 1.0, max_iter=7)) == smo_bytes(
            reference_smo_solve(K, y, 1.0, max_iter=7)
        )


class TestSVC:
    def test_separable_blobs(self):
        x, y = make_blobs(n=120, d=4, sep=4.0)
        clf = SVC(kernel="rbf", gamma="auto").fit(x, y)
        assert clf.score(x, y) > 0.95

    def test_linear_kernel(self):
        x, y = make_blobs(n=120, d=4, sep=4.0)
        clf = SVC(kernel="linear").fit(x, y)
        assert clf.score(x, y) > 0.95

    def test_arbitrary_label_values(self):
        x, y = make_blobs(n=80, d=3, sep=4.0, labels=("N", "AF"))
        clf = SVC().fit(x, y)
        preds = clf.predict(x)
        assert set(np.unique(preds)) <= {"N", "AF"}
        assert clf.score(x, y) > 0.9

    def test_decision_function_sign_matches_predict(self):
        x, y = make_blobs(n=80, d=3, sep=3.0)
        clf = SVC().fit(x, y)
        scores = clf.decision_function(x)
        preds = clf.predict(x)
        np.testing.assert_array_equal(
            preds, np.where(scores >= 0, clf.classes_[1], clf.classes_[0])
        )

    def test_single_class_degenerate(self):
        x = np.random.default_rng(0).standard_normal((10, 3))
        y = np.ones(10)
        clf = SVC().fit(x, y)
        assert (clf.predict(x) == 1).all()
        assert clf.score(x, y) == 1.0

    def test_three_classes_rejected(self):
        x = np.zeros((6, 2))
        y = np.array([0, 0, 1, 1, 2, 2])
        with pytest.raises(ValueError):
            SVC().fit(x, y)

    def test_not_fitted(self):
        from repro.ml.base import NotFittedError

        with pytest.raises(NotFittedError):
            SVC().predict(np.zeros((2, 2)))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SVC().fit(np.zeros(5), np.zeros(5))
        with pytest.raises(ValueError):
            SVC().fit(np.zeros((5, 2)), np.zeros(4))

    def test_support_vectors_subset_of_data(self):
        x, y = make_blobs(n=60, d=3, sep=2.0)
        clf = SVC().fit(x, y)
        assert clf.support_vectors_.shape[0] == len(clf.support_)
        np.testing.assert_allclose(clf.support_vectors_, x[clf.support_])

    def test_noisy_data_generalises(self):
        x, y = make_blobs(n=300, d=5, sep=2.5, seed=7)
        x_tr, y_tr, x_te, y_te = x[:200], y[:200], x[200:], y[200:]
        clf = SVC(c=1.0, kernel="rbf", gamma="scale").fit(x_tr, y_tr)
        assert clf.score(x_te, y_te) > 0.8

    def test_get_set_params_clone(self):
        clf = SVC(c=2.0, kernel="linear")
        params = clf.get_params()
        assert params["c"] == 2.0 and params["kernel"] == "linear"
        clone = clf.clone()
        assert clone is not clf and clone.get_params() == params
        clf.set_params(c=5.0)
        assert clf.c == 5.0
        with pytest.raises(ValueError):
            clf.set_params(unknown=1)
