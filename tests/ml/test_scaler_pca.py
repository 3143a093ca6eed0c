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
        """Paper: the covariance matrix is processed by a single task
        (at least as many samples as features)."""
        x = rng.standard_normal((60, 6))
        with Runtime(executor="sequential") as rt:
            PCA().fit(ds.array(x, (15, 3)))
            counts = rt.graph.count_by_name()
        assert counts["_eigendecomposition"] == 1
        assert counts["_partial_sum"] == 4
        assert counts["_reduce_mean"] == 1
        assert counts["_partial_cov"] == 4
        assert counts["_reduce_cov"] == 1
        assert "_row_decomposition" not in counts

    def test_single_svd_task_with_fewer_samples_than_features(self, rng):
        """Fewer samples than features: the mean map-reduce, then one
        task factors the centered rows; no covariance is built."""
        x = rng.standard_normal((20, 30))
        with Runtime(executor="sequential") as rt:
            PCA().fit(ds.array(x, (6, 7)))
            counts = rt.graph.count_by_name()
        assert counts["_partial_sum"] == 4
        assert counts["_reduce_mean"] == 1
        assert counts["_row_decomposition"] == 1
        for name in ("_partial_cov", "_reduce_cov", "_eigendecomposition"):
            assert name not in counts

    def test_invalid_n_components(self):
        with pytest.raises(ValueError):
            PCA(n_components=0)
        with pytest.raises(ValueError):
            PCA(n_components=1.5)
        with pytest.raises(ValueError):
            PCA(n_components=0.0)

    @pytest.mark.parametrize("flag", [True, False, np.True_])
    def test_bool_n_components_rejected(self, flag):
        with pytest.raises(ValueError, match="bool"):
            PCA(n_components=flag)

    @pytest.mark.parametrize("method", ["transform", "inverse_transform"])
    def test_type_validation_after_fit(self, method, rng):
        x = rng.standard_normal((20, 4))
        pca = PCA(n_components=2).fit(ds.array(x, (10, 2)))
        with pytest.raises(TypeError, match="ds-array"):
            getattr(pca, method)(x)

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


def covariance_route(monkeypatch):
    """Make ``PCA.fit`` take the covariance route whatever the shape."""
    from repro.ml.decomposition import pca as pca_module

    monkeypatch.setattr(pca_module, "_use_rows", lambda n_samples, n_features: False)


def has_canonical_signs(components: np.ndarray) -> bool:
    pivots = components[np.arange(len(components)), np.argmax(np.abs(components), axis=1)]
    return bool((pivots > 0).all())


class TestRowRoute:
    """Fewer samples than features: the thin SVD of the centered rows
    against the covariance kernels (map-reduce scatter + eigh)."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("shape, block", [((12, 30), (5, 7)), ((25, 26), (25, 13)), ((3, 40), (2, 40))])
    def test_matches_the_covariance_route(self, seed, shape, block, monkeypatch):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(shape) * rng.uniform(0.5, 3.0, shape[1]) + rng.normal(0, 5, shape[1])
        dx = ds.array(x, block)
        rows = PCA().fit(dx)
        with monkeypatch.context() as patch:
            covariance_route(patch)
            cov = PCA().fit(dx)
        n, d = shape
        assert rows.n_components_ == n and cov.n_components_ == d
        rank = n - 1  # centering removes one dimension
        np.testing.assert_allclose(
            rows.explained_variance_[:rank], cov.explained_variance_[:rank], rtol=1e-9
        )
        assert np.abs(rows.explained_variance_[rank:]).max() < 1e-9 * rows.explained_variance_[0]
        # eigenvectors are defined where the eigenvalue is distinct
        values = cov.explained_variance_[:rank]
        gaps = np.minimum(
            np.abs(np.diff(values, prepend=np.inf)), np.abs(np.diff(values, append=0.0))
        )
        distinct = gaps > 1e-6 * values[0]
        assert distinct.any()
        np.testing.assert_allclose(
            rows.components_[:rank][distinct], cov.components_[:rank][distinct], atol=1e-8
        )
        for fitted in (rows, cov):
            gram = fitted.components_ @ fitted.components_.T
            np.testing.assert_allclose(gram, np.eye(len(gram)), atol=1e-8)
            assert fitted.explained_variance_ratio_.sum() == pytest.approx(1.0)
            assert has_canonical_signs(fitted.components_)
        np.testing.assert_array_equal(rows.mean_, cov.mean_)
        z_rows = rows.transform(dx).collect()[:, :rank][:, distinct]
        z_cov = cov.transform(dx).collect()[:, :rank][:, distinct]
        np.testing.assert_allclose(z_rows, z_cov, atol=1e-7 * np.abs(z_cov).max())

    def test_full_reconstruction(self, rng):
        x = rng.standard_normal((8, 20))
        dx = ds.array(x, (3, 6))
        pca = PCA().fit(dx)
        back = pca.inverse_transform(pca.transform(dx)).collect()
        np.testing.assert_allclose(back, x, rtol=1e-8, atol=1e-8)

    @pytest.mark.parametrize("shape", [(6, 10), (10, 4)])
    def test_integer_input_fits_as_float(self, shape, rng):
        x = rng.integers(-5, 5, shape)
        got = PCA().fit(ds.array(x, (3, 3)))
        want = PCA().fit(ds.array(x.astype(float), (3, 3)))
        for name in ("components_", "explained_variance_", "mean_"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    @pytest.mark.parametrize("shape", [(6, 10), (10, 4), (7, 7)])
    def test_none_keeps_min_of_samples_and_features(self, shape, rng):
        pca = PCA().fit(ds.array(rng.standard_normal(shape), (3, 3)))
        assert pca.n_components_ == min(shape)
        assert pca.components_.shape == (min(shape), shape[1])

    @pytest.mark.parametrize("n_components", [None, 0.95, 3])
    def test_constant_data(self, n_components):
        dx = ds.array(np.full((5, 8), 3.0), (2, 3))
        pca = PCA(n_components=n_components).fit(dx)
        kept = 3 if n_components == 3 else 5
        assert pca.n_components_ == kept
        assert (pca.explained_variance_ == 0).all()
        assert (pca.explained_variance_ratio_ == 0).all()
        np.testing.assert_array_equal(pca.mean_, np.full(8, 3.0))
        z = pca.transform(dx).collect()
        assert z.shape == (5, kept) and (z == 0).all()


class TestCanonicalSigns:
    def test_largest_magnitude_entry_is_made_positive(self):
        from repro.ml.decomposition.pca import _canonical_signs

        comps = np.array(
            [
                [0.1, -0.9, 0.3],
                [0.6, 0.2, -0.1],
                [-0.5, 0.5, 0.0],  # tie: the first index wins
                [0.5, -0.5, 0.0],
            ]
        )
        out = _canonical_signs(comps.copy())
        np.testing.assert_array_equal(
            out,
            [[-0.1, 0.9, -0.3], [0.6, 0.2, -0.1], [0.5, -0.5, -0.0], [0.5, -0.5, 0.0]],
        )

    @pytest.mark.parametrize("shape", [(40, 6), (6, 40)])
    def test_fitted_components_are_canonical(self, shape, rng):
        x = rng.standard_normal(shape)
        pca = PCA().fit(ds.array(x, (4, 4)))
        flipped = PCA().fit(ds.array(-x, (4, 4)))
        assert has_canonical_signs(pca.components_)
        assert has_canonical_signs(flipped.components_)
        # -x has x's covariance: the same components, whatever signs
        # LAPACK picked (past the rank, the components are arbitrary)
        rank = min(shape[0] - 1, shape[1])
        np.testing.assert_allclose(
            flipped.components_[:rank], pca.components_[:rank], atol=1e-8
        )


class TestNonFiniteInput:
    """A NaN or an infinity fails at the mean reduction, before any
    decomposition work, in both routes."""

    # +inf and -inf in one column: numpy warns while summing to NaN
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("shape", [(30, 5), (5, 30)])
    @pytest.mark.parametrize(
        "bad", [[np.nan], [np.inf], [np.inf, -np.inf]], ids=["nan", "inf", "inf-and-minus-inf"]
    )
    def test_raises_value_error(self, shape, bad, rng):
        x = rng.standard_normal(shape)
        x[1 : 1 + len(bad), 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            PCA().fit(ds.array(x, (3, 3)))

    @pytest.mark.parametrize("shape", [(30, 5), (5, 30)])
    def test_fails_before_the_decomposition(self, shape, rng):
        from repro.runtime import TaskExecutionError

        x = rng.standard_normal(shape)
        x[2, 3] = np.nan
        with Runtime(executor="sequential") as rt:
            with pytest.raises(TaskExecutionError) as info:
                PCA().fit(ds.array(x, (3, 3)))
            rt.barrier()
            status = {(r.name, r.status) for r in rt.trace()}
        assert isinstance(info.value.__cause__, ValueError)
        assert ("_reduce_mean", "failed") in status
        ran = {name for name, state in status if state == "done"}
        assert "_partial_sum" in ran
        assert not ran & {"_partial_cov", "_eigendecomposition", "_row_decomposition"}
