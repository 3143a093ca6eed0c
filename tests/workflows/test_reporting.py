"""Unit tests of :mod:`repro.workflows.reporting`."""

from __future__ import annotations

import numpy as np

from repro.workflows import side_by_side, table1_block


def test_table1_block_contains_name_accuracy_and_confusion():
    cm = np.array([[0.96, 0.04], [0.25, 0.75]])
    block = table1_block("CSVM", 0.943, cm, ["N", "AF"])
    lines = block.splitlines()
    assert lines[0] == "--- CSVM ---"
    assert lines[1] == "accuracy: 94.3%"
    # header row + one row per class, fraction-normalised cells
    assert "N" in lines[2] and "AF" in lines[2]
    assert "0.960" in block and "0.750" in block


def test_table1_block_accepts_list_confusion():
    block = table1_block("RF", 1.0, [[1.0, 0.0], [0.0, 1.0]], ["N", "AF"])
    assert "accuracy: 100.0%" in block


def test_side_by_side_joins_blocks_with_blank_lines():
    assert side_by_side(["a", "b", "c"]) == "a\n\nb\n\nc"
    assert side_by_side(["solo"]) == "solo"
    assert side_by_side([]) == ""
