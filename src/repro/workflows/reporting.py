"""Rendering helpers producing the paper's tables and figure series."""

from __future__ import annotations

import numpy as np

from repro.ml.metrics import format_confusion


def table1_block(name: str, accuracy: float, confusion: np.ndarray, labels) -> str:
    """One cell of the paper's Table I: algorithm, accuracy and the
    fraction-normalised confusion matrix."""
    lines = [
        f"--- {name} ---",
        f"accuracy: {accuracy * 100:.1f}%",
        format_confusion(np.asarray(confusion), labels),
    ]
    return "\n".join(lines)


def side_by_side(blocks: list[str]) -> str:
    return "\n\n".join(blocks)
