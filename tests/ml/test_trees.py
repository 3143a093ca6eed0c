"""Decision-tree tests: split search, growth controls, prediction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import DecisionTreeClassifier
from repro.ml.base import NotFittedError
from repro.ml.trees import tree as tree_mod
from repro.ml.trees.tree import (
    Leaf,
    Split,
    _choose_features,
    _gini,
    best_split,
    build_tree,
    tree_depth,
    tree_n_leaves,
    tree_predict_proba,
)
from tests.ml.conftest import make_blobs


class TestGini:
    def test_pure(self):
        assert _gini(np.array([5.0, 0.0])) == 0.0

    def test_uniform_binary(self):
        assert _gini(np.array([5.0, 5.0])) == pytest.approx(0.5)

    def test_empty(self):
        assert _gini(np.array([0.0, 0.0])) == 0.0


class TestBestSplit:
    def test_perfect_split(self):
        x = np.array([[0.0], [1.0], [10.0], [11.0]])
        codes = np.array([0, 0, 1, 1])
        found = best_split(x, codes, 2, np.array([0]))
        assert found is not None
        f, thr, gain = found
        assert f == 0
        assert 1.0 < thr < 10.0
        assert gain == pytest.approx(0.5)

    def test_no_split_on_constant_feature(self):
        x = np.ones((6, 1))
        codes = np.array([0, 1, 0, 1, 0, 1])
        assert best_split(x, codes, 2, np.array([0])) is None

    def test_min_samples_leaf_respected(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        codes = np.array([0, 1, 1, 1])
        found = best_split(x, codes, 2, np.array([0]), min_samples_leaf=2)
        if found is not None:
            f, thr, _ = found
            left = (x[:, 0] <= thr).sum()
            assert left >= 2 and (4 - left) >= 2

    def test_picks_informative_feature(self, rng):
        n = 100
        informative = np.concatenate([np.zeros(n // 2), np.ones(n // 2)])
        noise = rng.standard_normal(n)
        x = np.column_stack([noise, informative])
        codes = informative.astype(int)
        f, thr, gain = best_split(x, codes, 2, np.array([0, 1]))
        assert f == 1


def reference_best_split(x, codes, n_classes, features, min_samples_leaf=1):
    """The split search as it was before the whole-node kernel: one
    sort / one-hot / cumsum / gini pipeline per candidate feature.  Kept
    as the oracle the kernel must reproduce byte for byte."""
    n = len(codes)
    parent_counts = np.bincount(codes, minlength=n_classes).astype(float)
    parent_gini = _gini(parent_counts)
    best = None
    for f in features:
        col = x[:, f]
        order = np.argsort(col, kind="stable")
        sorted_col = col[order]
        sorted_codes = codes[order]
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), sorted_codes] = 1.0
        cum = np.cumsum(onehot, axis=0)
        left_n = np.arange(1, n)
        valid = sorted_col[1:] > sorted_col[:-1]
        valid &= (left_n >= min_samples_leaf) & ((n - left_n) >= min_samples_leaf)
        if not valid.any():
            continue
        left_counts = cum[:-1]
        right_counts = parent_counts[None, :] - left_counts
        with np.errstate(invalid="ignore", divide="ignore"):
            pl = left_counts / left_n[:, None]
            pr = right_counts / (n - left_n)[:, None]
        gini_l = 1.0 - np.sum(pl * pl, axis=1)
        gini_r = 1.0 - np.sum(pr * pr, axis=1)
        weighted = (left_n * gini_l + (n - left_n) * gini_r) / n
        weighted[~valid] = np.inf
        idx = int(np.argmin(weighted))
        gain = parent_gini - weighted[idx]
        if gain > 1e-12 and (best is None or gain > best[2]):
            thr = float((sorted_col[idx] + sorted_col[idx + 1]) / 2.0)
            best = (int(f), thr, float(gain))
    return best


def reference_build_tree(
    x, codes, n_classes, max_depth, min_samples_split, min_samples_leaf, max_features, rng, depth=0
):
    """``build_tree`` over :func:`reference_best_split`, with the gini
    purity test it used then."""
    counts = np.bincount(codes, minlength=n_classes).astype(float)
    n = len(codes)
    if (
        n < min_samples_split
        or (max_depth is not None and depth >= max_depth)
        or _gini(counts) == 0.0
    ):
        return Leaf(probs=counts / max(n, 1))
    features = _choose_features(x.shape[1], max_features, rng)
    found = reference_best_split(x, codes, n_classes, features, min_samples_leaf)
    if found is None:
        return Leaf(probs=counts / max(n, 1))
    f, thr, _ = found
    mask = x[:, f] <= thr
    rest = (n_classes, max_depth, min_samples_split, min_samples_leaf, max_features, rng, depth + 1)
    return Split(
        feature=f,
        threshold=thr,
        left=reference_build_tree(x[mask], codes[mask], *rest),
        right=reference_build_tree(x[~mask], codes[~mask], *rest),
    )


def split_bytes(found):
    """A ``best_split`` result with its floats as bytes (-0.0 != 0.0)."""
    if found is None:
        return None
    f, thr, gain = found
    return f, np.float64(thr).tobytes(), np.float64(gain).tobytes()


def tree_bytes(node):
    if node.is_leaf:
        return ("leaf", node.probs.tobytes())
    return (
        "split",
        node.feature,
        np.float64(node.threshold).tobytes(),
        tree_bytes(node.left),
        tree_bytes(node.right),
    )


def random_node(seed, n=None, d=None):
    """A seeded node: 2-11 classes (numpy sums 8 and more addends
    pairwise), every third one with features rounded into ties, every
    fifth with a constant column."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 120)) if n is None else n
    d = int(rng.integers(1, 12)) if d is None else d
    n_classes = int(rng.integers(2, 12))
    x = rng.standard_normal((n, d))
    if seed % 3 == 0:
        x = np.round(x, 1)
    if seed % 5 == 0:
        x[:, rng.integers(0, d)] = 1.0
    return x, rng.integers(0, n_classes, n), n_classes, rng


class TestBestSplitMatchesReference:
    """The kernel against the per-feature loop it replaced: equal bytes,
    not close values."""

    @pytest.mark.parametrize("min_samples_leaf", [1, 3])
    def test_random_nodes(self, min_samples_leaf):
        for seed in range(150):
            x, codes, n_classes, rng = random_node(seed)
            features = rng.permutation(x.shape[1])[: int(rng.integers(1, x.shape[1] + 1))]
            got = best_split(x, codes, n_classes, features, min_samples_leaf)
            want = reference_best_split(x, codes, n_classes, features, min_samples_leaf)
            assert split_bytes(got) == split_bytes(want), seed

    def test_two_rows(self):
        x = np.array([[0.0, 5.0], [1.0, 5.0]])
        for codes in (np.array([0, 1]), np.array([1, 1])):
            for msl in (1, 2):
                got = best_split(x, codes, 2, np.array([1, 0]), msl)
                assert split_bytes(got) == split_bytes(
                    reference_best_split(x, codes, 2, np.array([1, 0]), msl)
                )
        assert best_split(x, np.array([0, 1]), 2, np.array([1, 0])) == (0, 0.5, 0.5)

    def test_fewer_than_two_rows(self):
        assert best_split(np.ones((1, 2)), np.array([0]), 2, np.array([0, 1])) is None
        assert best_split(np.ones((0, 2)), np.array([], dtype=int), 2, np.array([0])) is None

    def test_empty_candidate_list(self):
        x, codes, n_classes, _ = random_node(1)
        assert best_split(x, codes, n_classes, np.array([], dtype=int)) is None
        assert reference_best_split(x, codes, n_classes, np.array([], dtype=int)) is None

    def test_counts_argument_changes_nothing(self):
        x, codes, n_classes, _ = random_node(2)
        features = np.arange(x.shape[1])
        counts = np.bincount(codes, minlength=n_classes).astype(float)
        assert split_bytes(best_split(x, codes, n_classes, features, 1, counts)) == split_bytes(
            best_split(x, codes, n_classes, features)
        )

    def test_candidates_straddle_chunks(self, monkeypatch):
        """40 candidates in chunks of 7 (six chunks): the winner -- the
        first of three equal maxima -- sits in the fifth with one twin,
        the other twin in the sixth, and the first chunk holds a smaller
        gain."""
        rng = np.random.default_rng(0)
        n, d = 30, 40
        codes = np.repeat([0, 1], 15)
        x = np.round(rng.standard_normal((n, d)), 1)
        x[:, 3] = codes
        x[[0, 1, 29], 3] = [1, 1, 0]  # nearly separates: a real but smaller gain
        x[:, 31] = codes  # separates
        x[:, 33] = x[:, 38] = x[:, 31]
        features = np.arange(d)
        monkeypatch.setattr(tree_mod, "_CHUNK_ELEMS", 7 * n * 2)
        got = best_split(x, codes, 2, features)
        assert (got[0], got[2]) == (31, 0.5)
        assert best_split(x, codes, 2, np.array([3]))[2] > 0.1
        assert split_bytes(got) == split_bytes(reference_best_split(x, codes, 2, features))
        for seed in range(40):
            xs, cs, k, _ = random_node(seed, d=40)
            monkeypatch.setattr(tree_mod, "_CHUNK_ELEMS", 13 * len(cs) * k)
            assert split_bytes(best_split(xs, cs, k, features)) == split_bytes(
                reference_best_split(xs, cs, k, features)
            ), seed

    def test_many_rows_fall_back_to_one_candidate_per_pass(self, monkeypatch):
        monkeypatch.setattr(tree_mod, "_CHUNK_ELEMS", 1)
        x, codes, n_classes, _ = random_node(4, d=6)
        features = np.arange(6)
        assert split_bytes(best_split(x, codes, n_classes, features)) == split_bytes(
            reference_best_split(x, codes, n_classes, features)
        )

    @pytest.mark.parametrize("max_features", [None, "sqrt", 3])
    @pytest.mark.parametrize("min_samples_leaf", [1, 3])
    def test_whole_trees(self, max_features, min_samples_leaf):
        for seed in range(25):
            x, codes, n_classes, _ = random_node(seed, d=9)
            args = (x, codes, n_classes, None, 2, min_samples_leaf, max_features)
            got = build_tree(*args, np.random.default_rng(seed))
            want = reference_build_tree(*args, np.random.default_rng(seed))
            assert tree_bytes(got) == tree_bytes(want), seed


class TestThresholdSeparates:
    """A threshold must leave rows on both sides, or the child is the
    node again and growth never ends."""

    @pytest.mark.parametrize(
        "column",
        [
            [1.7e308, 1.7e308, 1.6e308, 1.6e308],  # midpoint overflows to inf
            [np.inf, np.inf, -np.inf, -np.inf],  # midpoint is nan
            # adjacent floats whose midpoint rounds (to even) onto the upper one
            [1.0 + 2**-51, 1.0 + 2**-51, 1.0 + 2**-52, 1.0 + 2**-52],
        ],
    )
    def test_extreme_neighbours(self, column):
        x = np.array(column).reshape(-1, 1)
        y = np.array([0, 0, 1, 1])
        clf = DecisionTreeClassifier().fit(x, y)
        assert clf.depth == 1
        assert clf.tree_.threshold == min(column)
        np.testing.assert_array_equal(clf.predict(x), y)

    def test_midpoint_kept_when_it_separates(self):
        f, thr, _ = best_split(np.array([[1.0], [2.0]]), np.array([0, 1]), 2, np.array([0]))
        assert thr == 1.5


class TestDecisionTree:
    def test_fits_blobs(self):
        x, y = make_blobs(n=200, sep=3.0)
        clf = DecisionTreeClassifier(random_state=0).fit(x, y)
        assert clf.score(x, y) == 1.0  # unrestricted tree memorises

    def test_max_depth_limits(self):
        x, y = make_blobs(n=200, sep=1.0, seed=4)
        clf = DecisionTreeClassifier(max_depth=2, random_state=0).fit(x, y)
        assert clf.depth <= 2

    def test_max_depth_zero_like(self):
        x, y = make_blobs(n=50)
        clf = DecisionTreeClassifier(max_depth=0).fit(x, y)
        assert clf.depth == 0
        assert clf.n_leaves == 1

    def test_min_samples_split(self):
        x, y = make_blobs(n=100, sep=0.5, seed=2)
        big = DecisionTreeClassifier(min_samples_split=50, random_state=0).fit(x, y)
        small = DecisionTreeClassifier(min_samples_split=2, random_state=0).fit(x, y)
        assert big.n_leaves <= small.n_leaves

    def test_predict_proba_sums_to_one(self):
        x, y = make_blobs(n=150, sep=2.0)
        clf = DecisionTreeClassifier(max_depth=3, random_state=0).fit(x, y)
        probs = clf.predict_proba(x)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_max_features_sqrt(self):
        x, y = make_blobs(n=100, d=9, sep=3.0)
        clf = DecisionTreeClassifier(max_features="sqrt", random_state=0).fit(x, y)
        assert clf.score(x, y) > 0.9

    def test_max_features_int_and_log2(self):
        x, y = make_blobs(n=80, d=8, sep=3.0)
        assert DecisionTreeClassifier(max_features=2, random_state=0).fit(x, y)
        assert DecisionTreeClassifier(max_features="log2", random_state=0).fit(x, y)

    def test_max_features_invalid(self):
        x, y = make_blobs(n=20)
        with pytest.raises(ValueError):
            DecisionTreeClassifier(max_features=0).fit(x, y)
        with pytest.raises(ValueError):
            DecisionTreeClassifier(max_features="cube").fit(x, y)

    def test_empty_and_mismatch(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.zeros((3, 2)), np.zeros(2))

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            DecisionTreeClassifier().predict(np.zeros((2, 2)))

    def test_string_labels(self):
        x, y = make_blobs(n=60, sep=3.0, labels=("N", "AF"))
        clf = DecisionTreeClassifier(random_state=0).fit(x, y)
        assert set(clf.predict(x)) <= {"N", "AF"}

    def test_deterministic_given_seed(self):
        x, y = make_blobs(n=100, d=6, sep=1.0, seed=9)
        a = DecisionTreeClassifier(max_features="sqrt", random_state=42).fit(x, y)
        b = DecisionTreeClassifier(max_features="sqrt", random_state=42).fit(x, y)
        np.testing.assert_array_equal(a.predict(x), b.predict(x))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 6))
    def test_property_depth_bound(self, seed, depth):
        x, y = make_blobs(n=60, d=3, sep=1.0, seed=seed)
        clf = DecisionTreeClassifier(max_depth=depth, random_state=0).fit(x, y)
        assert clf.depth <= depth
        assert clf.n_leaves <= 2**depth


class TestTreeHelpers:
    def test_structure_utilities(self):
        leaf = Leaf(probs=np.array([1.0, 0.0]))
        tree = Split(feature=0, threshold=0.5, left=leaf, right=Leaf(probs=np.array([0.0, 1.0])))
        assert tree_depth(tree) == 1
        assert tree_n_leaves(tree) == 2
        out = tree_predict_proba(tree, np.array([[0.0], [1.0]]), 2)
        np.testing.assert_array_equal(out, [[1, 0], [0, 1]])

    def test_build_tree_pure_input(self):
        x = np.random.default_rng(0).standard_normal((10, 2))
        codes = np.zeros(10, dtype=int)
        node = build_tree(x, codes, 2, None, 2, 1, None, np.random.default_rng(0))
        assert node.is_leaf
        np.testing.assert_array_equal(node.probs, [1.0, 0.0])
