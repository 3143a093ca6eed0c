"""Classification metrics: accuracy, confusion matrices, precision /
recall / F1 — the quantities of the paper's Table I."""

from __future__ import annotations

import numpy as np


def _flat(y) -> np.ndarray:
    return np.asarray(y).ravel()


def accuracy_score(y_true, y_pred) -> float:
    y_true, y_pred = _flat(y_true), _flat(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred must have the same length")
    if y_true.size == 0:
        raise ValueError("empty label arrays")
    return float(np.mean(y_true == y_pred))


def confusion_matrix(y_true, y_pred, labels=None, normalize: str | None = None) -> np.ndarray:
    """Confusion matrix ``C[i, j]``: true class i predicted as class j.

    ``normalize='all'`` divides by the total count, matching the
    fraction-style matrices of the paper's Table I; ``'true'``
    normalises per row.
    """
    y_true, y_pred = _flat(y_true), _flat(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred must have the same length")
    if labels is None:
        labels = np.unique(np.concatenate([y_true, y_pred]))
    labels = np.asarray(labels)
    index = {lab: i for i, lab in enumerate(labels.tolist())}
    n = len(labels)
    cm = np.zeros((n, n), dtype=float)
    for t, p in zip(y_true, y_pred):
        cm[index[t], index[p]] += 1
    if normalize == "all":
        cm /= max(cm.sum(), 1)
    elif normalize == "true":
        rows = cm.sum(axis=1, keepdims=True)
        rows[rows == 0] = 1
        cm /= rows
    elif normalize is not None:
        raise ValueError("normalize must be None, 'all' or 'true'")
    return cm


def binary_counts(y_true, y_pred, positive) -> tuple[int, int, int, int]:
    """(tp, fp, fn, tn) with *positive* as the positive class."""
    y_true, y_pred = _flat(y_true), _flat(y_pred)
    pos_t = y_true == positive
    pos_p = y_pred == positive
    tp = int(np.sum(pos_t & pos_p))
    fp = int(np.sum(~pos_t & pos_p))
    fn = int(np.sum(pos_t & ~pos_p))
    tn = int(np.sum(~pos_t & ~pos_p))
    return tp, fp, fn, tn


def precision_score(y_true, y_pred, positive) -> float:
    tp, fp, _, _ = binary_counts(y_true, y_pred, positive)
    return tp / (tp + fp) if tp + fp else 0.0


def recall_score(y_true, y_pred, positive) -> float:
    tp, _, fn, _ = binary_counts(y_true, y_pred, positive)
    return tp / (tp + fn) if tp + fn else 0.0


def f1_score(y_true, y_pred, positive) -> float:
    p = precision_score(y_true, y_pred, positive)
    r = recall_score(y_true, y_pred, positive)
    return 2 * p * r / (p + r) if p + r else 0.0


def roc_curve(y_true, scores, positive) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ROC points (fpr, tpr, thresholds) sweeping the score threshold.

    Relevant to the paper's §V discussion of precision-focus vs
    recall-focus in stroke care: the curve exposes the full trade-off
    a deployment threshold selects from.
    """
    y_true, scores = _flat(y_true), np.asarray(scores, dtype=float).ravel()
    if y_true.shape != scores.shape:
        raise ValueError("y_true and scores must have the same length")
    pos = y_true == positive
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC needs both classes present")
    order = np.argsort(-scores, kind="stable")
    sorted_pos = pos[order]
    tps = np.cumsum(sorted_pos)
    fps = np.cumsum(~sorted_pos)
    # collapse ties: keep the last point of each distinct score
    distinct = np.r_[np.flatnonzero(np.diff(scores[order])), len(scores) - 1]
    tpr = np.r_[0.0, tps[distinct] / n_pos]
    fpr = np.r_[0.0, fps[distinct] / n_neg]
    thresholds = np.r_[np.inf, scores[order][distinct]]
    return fpr, tpr, thresholds


def roc_auc_score(y_true, scores, positive) -> float:
    """Area under the ROC curve (trapezoidal)."""
    fpr, tpr, _ = roc_curve(y_true, scores, positive)
    return float(np.trapezoid(tpr, fpr))


def format_confusion(cm: np.ndarray, labels) -> str:
    """Render a confusion matrix like the paper's Table I cells."""
    labels = [str(l) for l in labels]
    width = max(8, max(len(l) for l in labels) + 2)
    head = " " * width + "".join(f"{l:>{width}}" for l in labels)
    lines = [head]
    for lab, row in zip(labels, cm):
        lines.append(f"{lab:>{width}}" + "".join(f"{v:>{width}.3f}" for v in row))
    return "\n".join(lines)
