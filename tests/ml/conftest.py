"""Shared data generators for the ML test suite."""

from __future__ import annotations

import numpy as np
import pytest

import repro.dsarray as ds
from repro.ml.trees.tree import Leaf, Split, build_tree, tree_predict_proba


def make_blobs(n=200, d=5, sep=2.0, seed=0, labels=(0.0, 1.0)):
    """Two separable gaussian blobs, shuffled."""
    rng = np.random.default_rng(seed)
    half = n // 2
    x = np.vstack(
        [rng.normal(-sep / 2, 1.0, (half, d)), rng.normal(sep / 2, 1.0, (n - half, d))]
    )
    y = np.array([labels[0]] * half + [labels[1]] * (n - half))
    perm = rng.permutation(n)
    return x[perm], y[perm]


def tree_depth(node: Leaf | Split) -> int:
    if node.is_leaf:
        return 0
    return 1 + max(tree_depth(node.left), tree_depth(node.right))


def tree_n_leaves(node: Leaf | Split) -> int:
    if node.is_leaf:
        return 1
    return tree_n_leaves(node.left) + tree_n_leaves(node.right)


class GrownTree:
    """One CART tree grown by the forest's builder, ``build_tree``, on
    in-memory (x, y), with what the tree tests read off it."""

    def __init__(self, x, y, max_depth=None, min_samples_split=2, max_features=None, seed=0):
        self.classes, codes = np.unique(np.asarray(y).ravel(), return_inverse=True)
        self.root = build_tree(
            np.asarray(x, dtype=float), codes, len(self.classes), max_depth,
            min_samples_split, 1, max_features, np.random.default_rng(seed),
        )

    def predict_proba(self, x):
        return tree_predict_proba(self.root, np.asarray(x, dtype=float), len(self.classes))

    def predict(self, x):
        return self.classes[np.argmax(self.predict_proba(x), axis=1)]

    @property
    def depth(self) -> int:
        return tree_depth(self.root)

    @property
    def n_leaves(self) -> int:
        return tree_n_leaves(self.root)


def as_ds(x, y, row_block=40, col_block=3):
    dx = ds.array(x, (row_block, col_block))
    dy = ds.array(y.reshape(-1, 1), (row_block, 1))
    return dx, dy


@pytest.fixture()
def blobs():
    return make_blobs()


@pytest.fixture()
def ds_blobs(blobs):
    x, y = blobs
    return as_ds(x, y)
