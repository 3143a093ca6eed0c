"""Distributed PCA via the covariance method — the paper's §III-B.4
description of the dislib implementation:

* features are **centered but not standardised** (covariance, not
  correlation, method);
* centering and covariance estimation run as **two successive
  map-reduce phases**, partitioning the samples only by row blocks;
* the unpartitioned (n_features, n_features) covariance matrix is
  processed by a **single task** computing the eigendecomposition with
  ``numpy.linalg.eigh``.

That graph is kept when there are at least as many samples as features.
With fewer samples than features (the paper's own 10308 x 18810 matrix)
the covariance has rank < n_samples, and its non-zero eigenpairs are
those of the n_samples-sized problem: after the mean map-reduce, one
task stacks and centers the rows and takes their thin SVD instead of
building and factoring the d x d covariance (DESIGN.md §18).  Both
routes return components with canonical signs — the largest-magnitude
entry of each is positive — so what is fitted downstream does not
depend on LAPACK's sign choice or on the route.

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


def _check_array(x) -> None:
    if not isinstance(x, ds.Array):
        raise TypeError("x must be a ds-array")


def _stripe(stripe_blocks: list) -> np.ndarray:
    """One row stripe as a single array."""
    if len(stripe_blocks) > 1:
        return np.hstack([np.asarray(b) for b in stripe_blocks])
    return np.asarray(stripe_blocks[0])


def _use_rows(n_samples: int, n_features: int) -> bool:
    """Whether ``fit`` factors the centered rows (n x d) rather than the
    covariance (d x d): whenever that is the smaller problem."""
    return n_samples < n_features


def _canonical_signs(components: np.ndarray) -> np.ndarray:
    """Flip, in place, each row whose largest-magnitude entry (the first
    one on a tie) is negative."""
    pivot = components[np.arange(len(components)), np.argmax(np.abs(components), axis=1)]
    components[pivot < 0] *= -1
    return components


def _spectrum(components: np.ndarray, values: np.ndarray) -> tuple:
    """``(components, variances, ratios)`` of components already sorted
    by decreasing explained variance."""
    total = values.sum()
    ratio = values / total if total > 0 else np.zeros_like(values)
    return _canonical_signs(components), values, ratio


@task(returns=1)
def _partial_sum(stripe_blocks: list):
    x = _stripe(stripe_blocks)
    return np.concatenate([[x.shape[0]], x.sum(axis=0)])


@task(returns=1)
def _reduce_mean(partials: list):
    acc = _sum_partials(partials)
    # a NaN or an infinity anywhere in a column reaches that column's sum
    if not np.isfinite(acc).all():
        raise ValueError("PCA input has non-finite values")
    return acc[1:] / acc[0]


@task(returns=1)
def _partial_cov(stripe_blocks: list, mean):
    """Per-stripe scatter of the centered samples: (X - mu)ᵀ (X - mu)."""
    xc = _stripe(stripe_blocks) - mean
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
    # components_ rows are eigenvectors
    return _spectrum(vectors[:, order].T, np.maximum(values[order], 0.0))


@task(returns=3)
def _row_decomposition(stripes: list, mean):
    """The single decomposition task of the row route: the thin SVD of
    the centered samples, whose right singular vectors are the
    covariance's eigenvectors and ``s**2 / (n - 1)`` its eigenvalues."""
    # centered in place, in the mean's dtype: the bits of ``x - mean``
    xc = np.vstack([_stripe(s) for s in stripes], dtype=mean.dtype)
    xc -= mean
    _, s, vt = np.linalg.svd(xc, full_matrices=False)
    return _spectrum(vt, s**2 / (len(xc) - 1))


@task(returns=1)
def _transform_stripe(stripe_blocks: list, mean, components):
    return (_stripe(stripe_blocks) - mean) @ components.T


class PCA(BaseEstimator):
    """Principal component analysis over ds-arrays (covariance method).

    Parameters
    ----------
    n_components:
        int — keep that many components;
        float in (0, 1] — keep the smallest number of components whose
        cumulative explained-variance ratio reaches the value;
        None — keep all: min(n_samples, n_features) of them.
    """

    def __init__(self, n_components=None):
        if isinstance(n_components, (bool, np.bool_)):
            raise ValueError("n_components must be an int, a float or None, not a bool")
        if isinstance(n_components, float) and not (0.0 < n_components <= 1.0):
            raise ValueError("fractional n_components must be in (0, 1]")
        if isinstance(n_components, (int, np.integer)) and n_components < 1:
            raise ValueError("integer n_components must be >= 1")
        self.n_components = n_components

    # ------------------------------------------------------------------
    def fit(self, x: ds.Array) -> "PCA":
        _check_array(x)
        if x.shape[0] < 2:
            raise ValueError("PCA needs at least 2 samples")
        stripes = list(x.iter_row_stripes())
        # phase 1: mean (map-reduce)
        mean_f = _reduce_mean([_partial_sum(s) for s in stripes])
        if _use_rows(*x.shape):
            # one task: thin SVD of the centered rows
            comp_f, val_f, ratio_f = _row_decomposition(stripes, mean_f)
        else:
            # phase 2: covariance (map-reduce over centered stripes),
            # then the single eigh task
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
        _check_array(x)
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
        _check_array(z)
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
    return _stripe(stripe_blocks) @ components + mean
