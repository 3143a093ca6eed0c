"""Metrics module tests, including property-based invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.metrics import (
    accuracy_score,
    binary_counts,
    confusion_matrix,
    f1_score,
    format_confusion,
    precision_score,
    recall_score,
)


def test_accuracy_perfect():
    assert accuracy_score([1, 0, 1], [1, 0, 1]) == 1.0


def test_accuracy_half():
    assert accuracy_score([1, 0, 1, 0], [1, 1, 0, 0]) == 0.5


def test_accuracy_length_mismatch():
    with pytest.raises(ValueError):
        accuracy_score([1], [1, 2])


def test_accuracy_empty():
    with pytest.raises(ValueError):
        accuracy_score([], [])


def test_confusion_matrix_counts():
    cm = confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1])
    np.testing.assert_array_equal(cm, [[1, 1], [0, 2]])


def test_confusion_matrix_normalize_all():
    cm = confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1], normalize="all")
    assert cm.sum() == pytest.approx(1.0)


def test_confusion_matrix_normalize_true():
    cm = confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1], normalize="true")
    np.testing.assert_allclose(cm.sum(axis=1), [1.0, 1.0])


def test_confusion_matrix_explicit_labels():
    cm = confusion_matrix([0, 0], [0, 0], labels=[0, 1])
    assert cm.shape == (2, 2)
    assert cm[0, 0] == 2


def test_confusion_matrix_bad_normalize():
    with pytest.raises(ValueError):
        confusion_matrix([0], [0], normalize="rows")


def test_binary_counts_table1_shape():
    """Paper Table Ia-style check: counts map onto tp/fp/fn/tn."""
    y_true = ["AF"] * 3 + ["N"] * 3
    y_pred = ["AF", "AF", "N", "AF", "N", "N"]
    tp, fp, fn, tn = binary_counts(y_true, y_pred, positive="AF")
    assert (tp, fp, fn, tn) == (2, 1, 1, 2)


def test_precision_recall_f1():
    y_true = [1, 1, 1, 0, 0]
    y_pred = [1, 1, 0, 1, 0]
    assert precision_score(y_true, y_pred, 1) == pytest.approx(2 / 3)
    assert recall_score(y_true, y_pred, 1) == pytest.approx(2 / 3)
    assert f1_score(y_true, y_pred, 1) == pytest.approx(2 / 3)


def test_zero_division_guards():
    assert precision_score([0, 0], [0, 0], positive=1) == 0.0
    assert recall_score([0, 0], [0, 0], positive=1) == 0.0
    assert f1_score([0, 0], [0, 0], positive=1) == 0.0


def test_format_confusion():
    cm = confusion_matrix(["AF", "N"], ["AF", "N"], normalize="all")
    text = format_confusion(cm, ["AF", "N"])
    assert "AF" in text and "0.500" in text


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(0, 3), min_size=1, max_size=60),
    st.lists(st.integers(0, 3), min_size=1, max_size=60),
)
def test_confusion_total_equals_n(a, b):
    n = min(len(a), len(b))
    y_true, y_pred = a[:n], b[:n]
    cm = confusion_matrix(y_true, y_pred, labels=[0, 1, 2, 3])
    assert cm.sum() == n
    # diagonal mass equals accuracy * n
    assert np.trace(cm) == pytest.approx(accuracy_score(y_true, y_pred) * n)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from([0, 1]), min_size=2, max_size=80))
def test_accuracy_bounds_and_self(y):
    y = np.array(y)
    assert accuracy_score(y, y) == 1.0
    flipped = 1 - y
    assert accuracy_score(y, flipped) == 0.0


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.sampled_from([0, 1]), min_size=4, max_size=60),
    st.lists(st.sampled_from([0, 1]), min_size=4, max_size=60),
)
def test_f1_is_harmonic_mean(a, b):
    n = min(len(a), len(b))
    y_true, y_pred = np.array(a[:n]), np.array(b[:n])
    p = precision_score(y_true, y_pred, 1)
    r = recall_score(y_true, y_pred, 1)
    f1 = f1_score(y_true, y_pred, 1)
    if p + r > 0:
        assert f1 == pytest.approx(2 * p * r / (p + r))
    else:
        assert f1 == 0.0
