"""StandardScaler and PCA: numerical correctness vs. NumPy references,
map-reduce structure, and variance-preservation semantics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.dsarray as ds
from repro.ml import PCA, StandardScaler
from repro.ml.base import NotFittedError
from repro.runtime import Runtime


class TestStandardScaler:
    def test_zero_mean_unit_variance(self, rng):
        x = rng.normal(5.0, 3.0, (100, 7))
        dx = ds.array(x, (30, 4))
        out = StandardScaler().fit_transform(dx).collect()
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.std(axis=0), 1.0, rtol=1e-10)

    def test_matches_manual(self, rng):
        x = rng.standard_normal((40, 3)) * [1.0, 10.0, 0.1] + [0, 5, -3]
        dx = ds.array(x, (15, 2))
        sc = StandardScaler().fit(dx)
        np.testing.assert_allclose(sc.mean_, x.mean(axis=0), rtol=1e-10)
        np.testing.assert_allclose(sc.std_, x.std(axis=0), rtol=1e-8)
        out = sc.transform(dx).collect()
        np.testing.assert_allclose(out, (x - x.mean(0)) / x.std(0), rtol=1e-8)

    def test_constant_feature_passthrough(self, rng):
        x = np.column_stack([rng.standard_normal(20), np.full(20, 3.0)])
        dx = ds.array(x, (10, 2))
        out = StandardScaler().fit_transform(dx).collect()
        np.testing.assert_allclose(out[:, 1], 0.0)  # centered, not divided

    def test_transform_new_data(self, rng):
        x = rng.standard_normal((50, 4)) + 10
        q = rng.standard_normal((10, 4)) + 10
        sc = StandardScaler().fit(ds.array(x, (20, 4)))
        out = sc.transform(ds.array(q, (5, 4))).collect()
        np.testing.assert_allclose(out, (q - x.mean(0)) / x.std(0), rtol=1e-8)

    def test_under_threads(self, rng):
        x = rng.standard_normal((80, 5)) * 4 + 2
        with Runtime(executor="threads", max_workers=4):
            out = StandardScaler().fit_transform(ds.array(x, (16, 3))).collect()
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-10)

    def test_not_fitted(self, rng):
        with pytest.raises(NotFittedError):
            StandardScaler().transform(ds.array(rng.standard_normal((4, 2)), (2, 2)))

    def test_type_validation(self):
        with pytest.raises(TypeError):
            StandardScaler().fit(np.zeros((4, 2)))

    def test_map_reduce_graph_shape(self, rng):
        """One partial-stats task per stripe + one reduce, plus one
        scale task per block (paper: parallelism based on row blocks)."""
        x = rng.standard_normal((100, 8))
        with Runtime(executor="sequential") as rt:
            dx = ds.array(x, (25, 4))  # 4x2 blocks
            StandardScaler().fit_transform(dx)
            counts = rt.graph.count_by_name()
        assert counts["_partial_stats"] == 4
        assert counts["_reduce_stats"] == 1
        assert counts["_scale_block"] == 8


class TestPCA:
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_reducers_bytes_equal_np_sum(self, k, rng, seq_runtime):
        """The map-reduce reducers sum their partials in place, in
        order; the bytes are those of ``np.sum(partials, axis=0)`` —
        signed zeros and mixed magnitudes included."""
        from repro.ml.decomposition.pca import _reduce_cov, _reduce_mean
        from repro.runtime import wait_on

        scatters = [
            rng.standard_normal((7, 7)) * 10.0 ** rng.integers(-8, 8) for _ in range(k)
        ]
        sums = [
            np.concatenate([[20.0], rng.standard_normal(7) * 10.0 ** rng.integers(-8, 8)])
            for _ in range(k)
        ]
        for parts in (scatters, sums):
            for p in parts:
                p.flat[-1] = -0.0
        cov = wait_on(_reduce_cov(scatters, 20 * k))
        mean = wait_on(_reduce_mean(sums))
        assert cov.tobytes() == (np.sum(scatters, axis=0) / (20 * k - 1)).tobytes()
        acc = np.sum(sums, axis=0)
        assert mean.tobytes() == (acc[1:] / acc[0]).tobytes()

    def test_matches_eigh_reference(self, rng):
        x = rng.standard_normal((60, 6)) @ rng.standard_normal((6, 6))
        dx = ds.array(x, (20, 3))
        pca = PCA().fit(dx)
        xc = x - x.mean(axis=0)
        cov = xc.T @ xc / (len(x) - 1)
        vals = np.sort(np.linalg.eigvalsh(cov))[::-1]
        np.testing.assert_allclose(pca.explained_variance_, vals, rtol=1e-8)

    def test_components_orthonormal(self, rng):
        x = rng.standard_normal((50, 5))
        pca = PCA().fit(ds.array(x, (17, 3)))
        gram = pca.components_ @ pca.components_.T
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-8)

    def test_transform_reduces_dimension(self, rng):
        x = rng.standard_normal((40, 8))
        pca = PCA(n_components=3).fit(ds.array(x, (10, 4)))
        z = pca.transform(ds.array(x, (10, 4)))
        assert z.shape == (40, 3)

    def test_variance_fraction_selection(self, rng):
        """The paper keeps 95% of variance; verify fractional selection."""
        # construct data with strongly decaying spectrum
        basis = np.linalg.qr(rng.standard_normal((10, 10)))[0]
        scales = np.array([10, 5, 2, 1, 0.5, 0.1, 0.05, 0.01, 0.005, 0.001])
        x = rng.standard_normal((200, 10)) * scales @ basis
        pca = PCA(n_components=0.95).fit(ds.array(x, (50, 5)))
        assert pca.n_components_ < 10
        assert pca.explained_variance_ratio_.sum() >= 0.95

    def test_fraction_on_zero_variance_keeps_at_most_all_features(self):
        """No cumulative ratio ever reaches the target on constant data:
        the component count stops at the feature count and the estimator
        agrees with its own transform."""
        dx = ds.array(np.ones((10, 4)), (5, 2))
        pca = PCA(n_components=0.95).fit(dx)
        assert pca.n_components_ == 4
        assert pca.components_.shape == (4, 4)
        z = pca.transform(dx)
        assert z.shape == z.collect().shape == (10, 4)

    def test_full_reconstruction(self, rng):
        x = rng.standard_normal((30, 4))
        dx = ds.array(x, (10, 2))
        pca = PCA().fit(dx)
        z = pca.transform(dx)
        back = pca.inverse_transform(z).collect()
        np.testing.assert_allclose(back, x, rtol=1e-8, atol=1e-8)

    def test_lossy_reconstruction_error_decreases_with_k(self, rng):
        x = rng.standard_normal((60, 6)) @ rng.standard_normal((6, 6))
        dx = ds.array(x, (20, 3))
        errs = []
        for k in (1, 3, 6):
            pca = PCA(n_components=k).fit(dx)
            back = pca.inverse_transform(pca.transform(dx)).collect()
            errs.append(np.linalg.norm(back - x))
        assert errs[0] > errs[1] > errs[2] - 1e-9

    def test_single_eigh_task(self, rng):
        """Paper: the covariance matrix is processed by a single task."""
        x = rng.standard_normal((60, 6))
        with Runtime(executor="sequential") as rt:
            PCA().fit(ds.array(x, (15, 3)))
            counts = rt.graph.count_by_name()
        assert counts["_eigendecomposition"] == 1
        assert counts["_partial_sum"] == 4
        assert counts["_partial_cov"] == 4

    def test_invalid_n_components(self):
        with pytest.raises(ValueError):
            PCA(n_components=0)
        with pytest.raises(ValueError):
            PCA(n_components=1.5)
        with pytest.raises(ValueError):
            PCA(n_components=0.0)

    def test_feature_mismatch_on_transform(self, rng):
        pca = PCA().fit(ds.array(rng.standard_normal((20, 4)), (10, 2)))
        with pytest.raises(ValueError):
            pca.transform(ds.array(rng.standard_normal((5, 3)), (5, 3)))

    def test_too_few_samples(self, rng):
        with pytest.raises(ValueError):
            PCA().fit(ds.array(rng.standard_normal((1, 4)), (1, 2)))

    def test_not_fitted(self, rng):
        with pytest.raises(NotFittedError):
            PCA().transform(ds.array(rng.standard_normal((4, 2)), (2, 2)))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_property_variance_ratio_sums_to_one(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((30, 5))
        pca = PCA().fit(ds.array(x, (10, 3)))
        assert pca.explained_variance_ratio_.sum() == pytest.approx(1.0)
        assert (np.diff(pca.explained_variance_) <= 1e-9).all()  # sorted desc
