"""Distributed random forest — dislib's ``RandomForestClassifier``.

Parallel structure follows the paper (§III-C.3): parallelism is based
on the number of estimators and ``distr_depth`` — the tree depth down
to which node splits run as separate tasks.  Each estimator produces:

* one bootstrap-sampling task,
* a binary tree of split tasks of depth ``distr_depth``,
* one build-subtree task per frontier node (2^distr_depth of them),
* one assembly task composing the final tree.

Note the block size of the input ds-array does *not* change the task
count — the property the paper blames for RF's poor scalability.
"""

from __future__ import annotations

import numpy as np

import repro.dsarray as ds
from repro.ml.base import BaseEstimator, as_labels, validate_xy
from repro.ml.trees.tree import (
    Leaf,
    Split,
    _choose_features,
    best_split,
    build_tree,
    tree_predict_proba,
)
from repro.runtime import task, wait_on


@task(returns=1)
def _gather(xstripes: list, ystripes: list):
    """Materialise the full dataset once; shared by every estimator."""
    x = np.vstack([np.asarray(s) for s in xstripes])
    y = as_labels(np.vstack([np.asarray(s).reshape(-1, 1) for s in ystripes]))
    classes, codes = np.unique(y, return_inverse=True)
    return x, codes, classes


@task(returns=1)
def _bootstrap(data, seed: int):
    x, codes, _classes = data
    rng = np.random.default_rng(seed)
    return rng.integers(0, len(x), size=len(x))


@task(returns=3)
def _node_split(data, indices, params: dict, seed: int):
    """Split one node: returns (node_info, left_indices, right_indices).

    ``node_info`` is either ('leaf', probs) when the node cannot split
    or ('split', feature, threshold).
    """
    x, codes, classes = data
    n_classes = len(classes)
    idx = np.asarray(indices)
    rng = np.random.default_rng(seed)
    sub_x, sub_c = x[idx], codes[idx]
    counts = np.bincount(sub_c, minlength=n_classes).astype(float)
    if len(idx) < params["min_samples_split"] or counts.max() == counts.sum():
        probs = counts / max(len(idx), 1)
        return ("leaf", probs), np.empty(0, dtype=int), np.empty(0, dtype=int)
    features = _choose_features(x.shape[1], params["max_features"], rng)
    found = best_split(sub_x, sub_c, n_classes, features, params["min_samples_leaf"], counts)
    if found is None:
        probs = counts / max(len(idx), 1)
        return ("leaf", probs), np.empty(0, dtype=int), np.empty(0, dtype=int)
    f, thr, _gain = found
    mask = sub_x[:, f] <= thr
    return ("split", f, thr), idx[mask], idx[~mask]


@task(returns=1)
def _build_subtree(data, indices, params: dict, seed: int, remaining_depth):
    """Grow an entire subtree locally below the distributed frontier."""
    x, codes, classes = data
    idx = np.asarray(indices)
    n_classes = len(classes)
    if len(idx) == 0:
        return None
    rng = np.random.default_rng(seed)
    return build_tree(
        x[idx],
        codes[idx],
        n_classes,
        remaining_depth,
        params["min_samples_split"],
        params["min_samples_leaf"],
        params["max_features"],
        rng,
    )


@task(returns=1)
def _join_node(info, left, right):
    """Compose one distributed split node from its children."""
    if info[0] == "leaf":
        return Leaf(probs=info[1])
    _, f, thr = info
    # A child may be None when its partition was empty; degrade to the
    # other side (cannot happen with min_samples_leaf >= 1 splits, but
    # guard anyway).
    if left is None and right is None:
        raise ValueError("split node with two empty children")
    if left is None:
        return right
    if right is None:
        return left
    return Split(feature=f, threshold=thr, left=left, right=right)


@task(returns=1)
def _predict_stripe_proba(trees: list, classes, xblocks: list):
    """Average the probability predictions of every tree on one stripe
    (the model aggregation of paper Fig. 7)."""
    x = np.hstack([np.asarray(b) for b in xblocks]) if len(xblocks) > 1 else np.asarray(xblocks[0])
    n_classes = len(classes)
    acc = np.zeros((len(x), n_classes))
    for t in trees:
        acc += tree_predict_proba(t, x, n_classes)
    return acc / len(trees)


class RandomForestClassifier(BaseEstimator):
    """Random forest over ds-arrays with task-based tree growth.

    Parameters
    ----------
    n_estimators:
        Number of trees (paper's evaluation uses 40).
    distr_depth:
        Depth down to which splits are separate tasks.
    max_depth, min_samples_split, min_samples_leaf, max_features:
        Standard CART controls (``max_features='sqrt'`` by default).
    random_state:
        Seed for bootstraps and feature sampling.
    """

    def __init__(
        self,
        n_estimators: int = 10,
        distr_depth: int = 1,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features="sqrt",
        random_state: int | None = None,
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if distr_depth < 0:
            raise ValueError("distr_depth must be >= 0")
        self.n_estimators = n_estimators
        self.distr_depth = distr_depth
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state

    def _params(self) -> dict:
        return {
            "min_samples_split": self.min_samples_split,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": self.max_features,
        }

    # ------------------------------------------------------------------
    def fit(self, x: ds.Array, y: ds.Array) -> "RandomForestClassifier":
        validate_xy(x, y)
        data = _gather(x.stripe_futures(), y.stripe_futures())
        params = self._params()
        seed0 = self.random_state if self.random_state is not None else 0

        def grow(indices, depth: int, seed: int):
            remaining = None if self.max_depth is None else max(self.max_depth - depth, 0)
            if depth >= self.distr_depth or remaining == 0:
                return _build_subtree(data, indices, params, seed, remaining)
            info, left_idx, right_idx = _node_split(data, indices, params, seed)
            left = grow(left_idx, depth + 1, seed * 2 + 1)
            right = grow(right_idx, depth + 1, seed * 2 + 2)
            return _join_node(info, left, right)

        trees = []
        for e in range(self.n_estimators):
            boot = _bootstrap(data, seed0 + e)
            trees.append(grow(boot, 0, seed0 + 1000 * (e + 1)))
        self._trees = trees
        # classes are needed for predict; derive them from the labels
        self.classes_ = np.unique(as_labels(y.collect()))
        return self

    # ------------------------------------------------------------------
    def predict_proba(self, q: ds.Array) -> np.ndarray:
        self._check_fitted("_trees")
        parts = [
            _predict_stripe_proba(self._trees, self.classes_, stripe)
            for stripe in q.iter_row_stripes()
        ]
        return np.vstack(wait_on(parts))

    def predict(self, q: ds.Array) -> np.ndarray:
        probs = self.predict_proba(q)
        return self.classes_[np.argmax(probs, axis=1)]

    def score(self, q: ds.Array, y: ds.Array) -> float:
        from repro.ml.metrics import accuracy_score

        return accuracy_score(as_labels(y.collect()), self.predict(q))

    def feature_importances(self, n_features: int) -> np.ndarray:
        """Split-frequency importances: how often each feature is used
        as a split across the forest, normalised to sum to 1."""
        self._check_fitted("_trees")
        from repro.ml.trees.tree import Split

        counts = np.zeros(n_features)

        def walk(node):
            if node is None or node.is_leaf:
                return
            counts[node.feature] += 1
            walk(node.left)
            walk(node.right)

        for t in wait_on(list(self._trees)):
            walk(t)
        total = counts.sum()
        return counts / total if total > 0 else counts
