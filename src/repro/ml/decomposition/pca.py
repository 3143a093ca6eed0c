"""Distributed PCA via the covariance method — exactly the paper's
§III-B.4 description of the dislib implementation:

* features are **centered but not standardised** (covariance, not
  correlation, method);
* centering and covariance estimation run as **two successive
  map-reduce phases**, partitioning the samples only by row blocks;
* the unpartitioned (n_features, n_features) covariance matrix is
  processed by a **single task** computing the eigendecomposition with
  ``numpy.linalg.eigh``.

``n_components`` may be an int (component count) or a float in (0, 1]
— the preserved-variance fraction; the paper keeps 95% of the variance,
reducing 18810 STFT features to 3269 components.
"""

from __future__ import annotations

import numpy as np

import repro.dsarray as ds
from repro.ml.base import BaseEstimator
from repro.runtime import task, wait_on


def _sum_partials(partials: list) -> np.ndarray:
    """Element-wise sum in list order — every bit of
    ``np.sum(partials, axis=0)`` without first copying the partials into
    one stacked array."""
    # np.sum starts from the identity: adding 0 keeps every value and
    # turns a -0.0 into the +0.0 np.sum returns (dtype unchanged)
    acc = np.asarray(partials[0]) + 0
    for p in partials[1:]:
        acc += p
    return acc


@task(returns=1)
def _partial_sum(stripe_blocks: list):
    x = np.hstack([np.asarray(b) for b in stripe_blocks]) if len(stripe_blocks) > 1 else np.asarray(stripe_blocks[0])
    return np.concatenate([[x.shape[0]], x.sum(axis=0)])


@task(returns=1)
def _reduce_mean(partials: list):
    acc = _sum_partials(partials)
    return acc[1:] / acc[0]


@task(returns=1)
def _partial_cov(stripe_blocks: list, mean):
    """Per-stripe scatter of the centered samples: (X - mu)ᵀ (X - mu)."""
    x = np.hstack([np.asarray(b) for b in stripe_blocks]) if len(stripe_blocks) > 1 else np.asarray(stripe_blocks[0])
    xc = x - mean
    return xc.T @ xc


@task(returns=1)
def _reduce_cov(partials: list, n_samples: int):
    scatter = _sum_partials(partials)
    return scatter / (n_samples - 1)


@task(returns=3)
def _eigendecomposition(cov):
    """The paper's single-task eigh: components sorted by decreasing
    explained variance."""
    values, vectors = np.linalg.eigh(cov)
    order = np.argsort(values)[::-1]
    values = np.maximum(values[order], 0.0)
    vectors = vectors[:, order]
    total = values.sum()
    ratio = values / total if total > 0 else np.zeros_like(values)
    return vectors.T, values, ratio  # components_ rows are eigenvectors


@task(returns=1)
def _transform_stripe(stripe_blocks: list, mean, components):
    x = np.hstack([np.asarray(b) for b in stripe_blocks]) if len(stripe_blocks) > 1 else np.asarray(stripe_blocks[0])
    return (x - mean) @ components.T


class PCA(BaseEstimator):
    """Principal component analysis over ds-arrays (covariance method).

    Parameters
    ----------
    n_components:
        int — keep that many components;
        float in (0, 1] — keep the smallest number of components whose
        cumulative explained-variance ratio reaches the value;
        None — keep all.
    """

    def __init__(self, n_components=None):
        if isinstance(n_components, float) and not (0.0 < n_components <= 1.0):
            raise ValueError("fractional n_components must be in (0, 1]")
        if isinstance(n_components, (int, np.integer)) and not isinstance(n_components, bool) and n_components < 1:
            raise ValueError("integer n_components must be >= 1")
        self.n_components = n_components

    # ------------------------------------------------------------------
    def fit(self, x: ds.Array) -> "PCA":
        if not isinstance(x, ds.Array):
            raise TypeError("x must be a ds-array")
        if x.shape[0] < 2:
            raise ValueError("PCA needs at least 2 samples")
        stripes = list(x.iter_row_stripes())
        # phase 1: mean (map-reduce)
        mean_f = _reduce_mean([_partial_sum(s) for s in stripes])
        # phase 2: covariance (map-reduce over centered stripes)
        cov_f = _reduce_cov([_partial_cov(s, mean_f) for s in stripes], x.shape[0])
        comp_f, val_f, ratio_f = _eigendecomposition(cov_f)

        self._mean = np.asarray(wait_on(mean_f))
        components = np.asarray(wait_on(comp_f))
        values = np.asarray(wait_on(val_f))
        ratio = np.asarray(wait_on(ratio_f))

        k = self._resolve_k(ratio)
        self.components_ = components[:k]
        self.explained_variance_ = values[:k]
        self.explained_variance_ratio_ = ratio[:k]
        self.n_components_ = k
        self.n_features_in_ = x.shape[1]
        return self

    def _resolve_k(self, ratio: np.ndarray) -> int:
        if self.n_components is None:
            return len(ratio)
        if isinstance(self.n_components, float):
            cum = np.cumsum(ratio)
            # zero-variance data never reaches the target: keep them all
            return int(min(np.searchsorted(cum, self.n_components - 1e-12) + 1, len(ratio)))
        return int(min(self.n_components, len(ratio)))

    @property
    def mean_(self) -> np.ndarray:
        self._check_fitted("components_")
        return self._mean

    # ------------------------------------------------------------------
    def transform(self, x: ds.Array, block_size: tuple[int, int] | None = None) -> ds.Array:
        """Project onto the principal components; one task per stripe."""
        self._check_fitted("components_")
        if x.shape[1] != self.n_features_in_:
            raise ValueError(
                f"x has {x.shape[1]} features, PCA was fitted on {self.n_features_in_}"
            )
        bs = block_size or (x.block_size[0], min(x.block_size[1], self.n_components_))
        stripes = [
            _transform_stripe(s, self._mean, self.components_)
            for s in x.iter_row_stripes()
        ]
        from repro.dsarray import blocking as bk

        col_ranges = bk.grid(self.n_components_, bs[1])
        grid = [
            [bk.slice_block(s, 0, 10**9, c0, c1) for c0, c1 in col_ranges]
            for s in stripes
        ]
        return ds.Array(grid, shape=(x.shape[0], self.n_components_), block_size=bs)

    def fit_transform(self, x: ds.Array, block_size: tuple[int, int] | None = None) -> ds.Array:
        return self.fit(x).transform(x, block_size=block_size)

    def inverse_transform(self, z: ds.Array) -> ds.Array:
        """Map component scores back to the original feature space."""
        self._check_fitted("components_")

        comp = self.components_
        mean = self._mean

        stripes = [
            _inverse_stripe(s, mean, comp) for s in z.iter_row_stripes()
        ]
        from repro.dsarray import blocking as bk

        bs = (z.block_size[0], min(self.n_features_in_, 512))
        col_ranges = bk.grid(self.n_features_in_, bs[1])
        grid = [
            [bk.slice_block(s, 0, 10**9, c0, c1) for c0, c1 in col_ranges]
            for s in stripes
        ]
        return ds.Array(grid, shape=(z.shape[0], self.n_features_in_), block_size=bs)


@task(returns=1)
def _inverse_stripe(stripe_blocks: list, mean, components):
    zc = np.hstack([np.asarray(b) for b in stripe_blocks]) if len(stripe_blocks) > 1 else np.asarray(stripe_blocks[0])
    return zc @ components + mean
