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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_kernel_rejected(self, bad):
        """A NaN used to "converge" in 3 iterations with every
        multiplier NaN; a non-finite kernel is now refused up front."""
        x, y01 = make_blobs(n=20, d=3, seed=0)
        K = rbf_kernel(x, x, 0.5)
        K[3, 7] = bad
        with pytest.raises(ValueError, match="non-finite"):
            smo_solve(K, np.where(y01 > 0, 1.0, -1.0), C=1.0)

    def test_overflowing_gradient_rejected(self):
        """Finite entries whose sums overflow float64: the solve cannot
        mean anything, and is refused instead of returning NaNs."""
        y = np.array([1.0, -1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="overflowed"):
            smo_solve(np.full((4, 4), 1e308), y, C=10.0)

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
    """``smo_solve`` as it was before the incremental working set: the
    masks and the violations rebuilt from ``alpha`` and ``grad`` every
    iteration, the pair picked through ``flatnonzero`` index lists and
    boolean copies of the violations, the update on numpy scalars.
    Kept whole as the oracle (the selection decides every later
    iterate, so only full solves compare)."""
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


#: box constants from "everything at a bound" (no free support vector:
#: the bias comes from the violations) to "nothing clipped"
C_GRID = (1e-3, 0.1, 1.0, 10.0, 1e3)


def af_problem(seed, n):
    """A cascade task's SMO problem at the benchmark's shape: 34 PCA
    columns, RBF with gamma = 1/34 and, like a first-layer partition
    with the previous round's support vectors fed back, some rows
    repeated (equal kernel columns, tied violations)."""
    rng = np.random.default_rng(seed)
    n_fed = int(rng.integers(0, n // 3 + 1))
    y01 = rng.random(n - n_fed) < 0.5
    x = rng.standard_normal((n - n_fed, 34)) + np.where(y01, 0.6, -0.6)[:, None]
    fed = rng.choice(n - n_fed, size=n_fed, replace=False)
    x, y01 = np.vstack([x, x[fed]]), np.concatenate([y01, y01[fed]])
    return rbf_kernel(x, x, 1.0 / 34), np.where(y01, 1.0, -1.0)


def has_free_sv(res, C):
    return bool(((res.alpha > 1e-8) & (res.alpha < C - 1e-8)).any())


def assert_same_solve(K, y, C, **kw):
    got, want = smo_solve(K, y, C, **kw), reference_smo_solve(K, y, C, **kw)
    assert smo_bytes(got) == smo_bytes(want)
    return got


class TestSMOMatchesReference:
    """The incremental solver against the rebuild-every-iteration one:
    every field of the result equal, floats by their bytes."""

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
        """Caps that stop the solve mid-run, before it converges."""
        x, y01 = make_blobs(n=100, d=4, sep=0.1, seed=2)
        y = np.where(y01 > 0, 1.0, -1.0)
        problems = [(rbf_kernel(x, x, 0.25), y, 1.0), (*af_problem(7, 90), 10.0)]
        for K, y, C in problems:
            for cap in (1, 2, 5, 7, 17):
                res = assert_same_solve(K, y, C, tol=1e-6, max_iter=cap)
                assert (res.n_iter, res.converged) == (cap, False)

    @pytest.mark.parametrize("tol", [1e-1, 1e-6])
    @pytest.mark.parametrize("C", C_GRID)
    def test_af_shaped_problems(self, C, tol):
        results = [assert_same_solve(*af_problem(n, n), C, tol=tol) for n in range(33, 103, 7)]
        free = {has_free_sv(r, C) for r in results}
        if (C, tol) == (C_GRID[0], 1e-1):
            assert free == {False}  # bias from the violation extremes
        if C >= 1.0:
            assert free == {True}  # bias from the free SVs

    @pytest.mark.parametrize("C", [0.1, 10.0])
    @pytest.mark.parametrize("label", [1.0, -1.0])
    def test_one_against_many(self, label, C):
        """One sample of the other class: after the first step nearly
        every pair shares a label (the same-label update branch)."""
        K, _ = af_problem(3, 40)
        y = np.full(40, label)
        y[17] = -label
        assert_same_solve(K, y, C, tol=1e-6)

    def test_exact_zero_violation_keeps_its_sign(self):
        """Integer data: the gradient reaches exact zeros, and with no
        free SV the bias is their mean.  ``-y * grad`` makes it -0.0;
        summing ``-y * Q`` columns into the violations instead would
        make it +0.0 (``g + -g`` rounds to +0.0)."""
        x = np.array([[2.0], [2.0], [1.0]])
        res = assert_same_solve(x @ x.T, np.array([1.0, 1.0, -1.0]), 0.5)
        assert res.b == 0.0 and np.signbit(res.b)

    @pytest.mark.parametrize("seed", range(4))
    def test_non_symmetric_kernel(self, seed):
        """Q[:, i] and Q[i] differ: the gradient must add columns."""
        K, y = af_problem(seed, 50)
        K = K + 0.05 * np.random.default_rng(seed).standard_normal(K.shape)
        assert_same_solve(K, y, 1.0, max_iter=500)

    @settings(deadline=None)
    @given(
        n=st.integers(2, 102),
        d=st.integers(1, 34),
        C=st.sampled_from(C_GRID),
        kernel=st.sampled_from(["linear", "rbf", "poly", "non-symmetric"]),
        n_dup=st.integers(0, 51),
        p_pos=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_bytes_equal(self, n, d, C, kernel, n_dup, p_pos, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, d))
        n_dup = min(n_dup, n // 2)
        if n_dup:
            x[n - n_dup :] = x[rng.integers(0, n - n_dup, size=n_dup)]
        y = np.where(rng.random(n) < p_pos, 1.0, -1.0)
        if kernel == "linear":
            K = linear_kernel(x, x)
        elif kernel == "poly":
            K = poly_kernel(x, x, gamma=1.0 / d, degree=3, coef0=1.0)
        else:
            K = rbf_kernel(x, x, 1.0 / d)
            if kernel == "non-symmetric":
                K = K + 0.05 * rng.standard_normal((n, n))
        assert_same_solve(K, y, C, max_iter=2000)


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

    def test_single_class_support_index(self):
        x = np.random.default_rng(0).standard_normal((10, 3))
        clf = SVC().fit(x, np.full(10, "AF"))
        np.testing.assert_array_equal(clf.support_, [0])
        np.testing.assert_array_equal(clf.support_vectors_, x[clf.support_])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_features_rejected(self, bad):
        x, y = make_blobs(n=20, d=3)
        x[4, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            SVC().fit(x, y)

    def test_empty_training_set(self):
        with pytest.raises(ValueError, match="empty training set"):
            SVC().fit(np.zeros((0, 3)), np.zeros(0))

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
