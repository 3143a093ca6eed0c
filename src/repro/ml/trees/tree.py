"""CART decision trees (gini), built from scratch.

Used standalone as an in-memory estimator and as the building block of
the distributed random forest.  Split search is one whole-array pass
per node: every candidate feature is sorted at once and one cumulative
class-count array gives the gini of every threshold of every candidate,
O(F n log n) in a handful of numpy calls.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.ml.base import BaseEstimator


@dataclasses.dataclass
class Leaf:
    """Terminal node: class probability distribution (paper Fig. 7)."""

    probs: np.ndarray

    @property
    def is_leaf(self) -> bool:
        return True


@dataclasses.dataclass
class Split:
    """Internal node: go left when ``x[feature] <= threshold``."""

    feature: int
    threshold: float
    left: "Leaf | Split"
    right: "Leaf | Split"

    @property
    def is_leaf(self) -> bool:
        return False


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.sum(p * p))


#: Candidate features searched per pass of :func:`best_split`, as a cap
#: on the elements of one ``(features, rows, classes)`` temporary: a
#: node of few rows takes all its candidates at once, a node of many
#: rows (``max_features=None`` on thousands of PCA components) goes a
#: few features at a time instead of allocating gigabytes.
_CHUNK_ELEMS = 1 << 16


def best_split(
    x: np.ndarray,
    codes: np.ndarray,
    n_classes: int,
    features: np.ndarray,
    min_samples_leaf: int = 1,
    counts: np.ndarray | None = None,
) -> tuple[int, float, float] | None:
    """Best (feature, threshold, gain) over the candidate *features*.

    *counts* are the node's per-class sample counts when the caller
    already has them.  Returns None if no split improves the gini
    impurity.
    """
    n = len(codes)
    features = np.asarray(features, dtype=np.intp)
    # a cut after sorted position i leaves i+1 samples on the left:
    # cuts lo..hi-1 leave min_samples_leaf (and at least one) per side
    side = max(min_samples_leaf, 1)
    lo, hi = side - 1, n - side
    if lo >= hi or len(features) == 0:
        return None
    if counts is None:
        counts = np.bincount(codes, minlength=n_classes).astype(float)
    parent_gini = _gini(counts)
    left_n = np.arange(1.0, n)
    right_n = n - left_n
    class_ids = np.arange(n_classes)
    chunk = max(1, _CHUNK_ELEMS // (n * n_classes))
    best: tuple[int, float, float] | None = None
    for c0 in range(0, len(features), chunk):
        fs = features[c0 : c0 + chunk]
        rows = np.arange(len(fs))
        cols = x.T[fs]  # (F, n), one candidate per row
        order = np.argsort(cols, axis=1, kind="stable")
        sorted_cols = cols[rows[:, None], order]
        onehot = codes[order[:, :-1]][..., None] == class_ids
        # class counts of the first i+1 samples, class axis last
        left_counts = np.cumsum(onehot, axis=1, dtype=float)
        right_counts = counts - left_counts
        pl = left_counts / left_n[:, None]
        pr = right_counts / right_n[:, None]
        gini_l = 1.0 - (pl * pl).sum(axis=-1)
        gini_r = 1.0 - (pr * pr).sum(axis=-1)
        weighted = (left_n * gini_l + right_n * gini_r) / n
        # a threshold needs two distinct neighbours to sit between
        weighted[~(sorted_cols[:, 1:] > sorted_cols[:, :-1])] = np.inf
        weighted[:, :lo] = np.inf
        weighted[:, hi:] = np.inf
        cut = np.argmin(weighted, axis=1)
        gains = parent_gini - weighted[rows, cut]
        k = int(np.argmax(gains))  # first maximum, in candidate order
        gain = float(gains[k])
        if gain > 1e-12 and (best is None or gain > best[2]):
            a = float(sorted_cols[k, cut[k]])
            b = float(sorted_cols[k, cut[k] + 1])
            thr = (a + b) / 2.0
            if not a <= thr < b:
                # the midpoint overflowed (or a, b = -inf, +inf): it
                # would leave every row on one side
                thr = a
            best = (int(fs[k]), thr, gain)
    return best


def _choose_features(n_features: int, max_features, rng: np.random.Generator) -> np.ndarray:
    if max_features is None:
        return np.arange(n_features)
    if max_features == "sqrt":
        k = max(1, int(np.sqrt(n_features)))
    elif max_features == "log2":
        k = max(1, int(np.log2(n_features)))
    elif isinstance(max_features, (int, np.integer)):
        k = int(min(max_features, n_features))
        if k < 1:
            raise ValueError("max_features must be >= 1")
    else:
        raise ValueError(f"bad max_features {max_features!r}")
    return rng.choice(n_features, size=k, replace=False)


def build_tree(
    x: np.ndarray,
    codes: np.ndarray,
    n_classes: int,
    max_depth: int | None,
    min_samples_split: int,
    min_samples_leaf: int,
    max_features,
    rng: np.random.Generator,
    depth: int = 0,
) -> Leaf | Split:
    """Recursively grow a CART subtree on (x, codes)."""
    counts = np.bincount(codes, minlength=n_classes).astype(float)
    n = len(codes)
    if (
        n < min_samples_split
        or (max_depth is not None and depth >= max_depth)
        or counts.max() == n  # pure
    ):
        return Leaf(probs=counts / max(n, 1))
    features = _choose_features(x.shape[1], max_features, rng)
    found = best_split(x, codes, n_classes, features, min_samples_leaf, counts)
    if found is None:
        return Leaf(probs=counts / max(n, 1))
    f, thr, _ = found
    mask = x[:, f] <= thr
    left = build_tree(
        x[mask], codes[mask], n_classes, max_depth, min_samples_split,
        min_samples_leaf, max_features, rng, depth + 1,
    )
    right = build_tree(
        x[~mask], codes[~mask], n_classes, max_depth, min_samples_split,
        min_samples_leaf, max_features, rng, depth + 1,
    )
    return Split(feature=f, threshold=thr, left=left, right=right)


def tree_predict_proba(node: Leaf | Split, x: np.ndarray, n_classes: int) -> np.ndarray:
    """Probability predictions for a whole matrix via mask descent."""
    out = np.zeros((len(x), n_classes))
    idx = np.arange(len(x))
    stack = [(node, idx)]
    while stack:
        cur, rows = stack.pop()
        if len(rows) == 0:
            continue
        if cur.is_leaf:
            out[rows] = cur.probs
        else:
            mask = x[rows, cur.feature] <= cur.threshold
            stack.append((cur.left, rows[mask]))
            stack.append((cur.right, rows[~mask]))
    return out


def tree_depth(node: Leaf | Split) -> int:
    if node.is_leaf:
        return 0
    return 1 + max(tree_depth(node.left), tree_depth(node.right))


def tree_n_leaves(node: Leaf | Split) -> int:
    if node.is_leaf:
        return 1
    return tree_n_leaves(node.left) + tree_n_leaves(node.right)


class DecisionTreeClassifier(BaseEstimator):
    """In-memory CART classifier."""

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=None,
        random_state: int | None = None,
    ):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state

    def fit(self, x: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y).ravel()
        if len(x) != len(y):
            raise ValueError("x and y length mismatch")
        if len(x) == 0:
            raise ValueError("empty training set")
        self.classes_, codes = np.unique(y, return_inverse=True)
        rng = np.random.default_rng(self.random_state)
        self.tree_ = build_tree(
            x,
            codes,
            len(self.classes_),
            self.max_depth,
            self.min_samples_split,
            self.min_samples_leaf,
            self.max_features,
            rng,
        )
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        self._check_fitted("tree_")
        return tree_predict_proba(self.tree_, np.atleast_2d(np.asarray(x, dtype=float)), len(self.classes_))

    def predict(self, x: np.ndarray) -> np.ndarray:
        probs = self.predict_proba(x)
        return self.classes_[np.argmax(probs, axis=1)]

    def score(self, x: np.ndarray, y: np.ndarray) -> float:
        from repro.ml.metrics import accuracy_score

        return accuracy_score(np.asarray(y).ravel(), self.predict(x))

    @property
    def depth(self) -> int:
        self._check_fitted("tree_")
        return tree_depth(self.tree_)

    @property
    def n_leaves(self) -> int:
        self._check_fitted("tree_")
        return tree_n_leaves(self.tree_)
