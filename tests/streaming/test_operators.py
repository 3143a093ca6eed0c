"""Window semantics: tumbling count windows, keys, partial flush."""

from __future__ import annotations

import pytest

from repro.streaming import Record, TumblingCountWindow, run_windowed


def recs(values, key=None):
    return [Record(v, key=key) for v in values]


def test_tumbling_count_exact_windows():
    out = run_windowed(TumblingCountWindow(3), recs(range(9)), fn=list)
    assert [r.value for r in out] == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]


def test_tumbling_count_flushes_partial_at_eos():
    out = run_windowed(TumblingCountWindow(4), recs(range(10)), fn=list)
    assert [r.value for r in out] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]


def test_count_windows_are_keyed_independently():
    elements = [Record(v, key=v % 2) for v in range(8)]
    out = run_windowed(TumblingCountWindow(2), elements, fn=list)
    assert [(r.key, r.value) for r in out] == [
        (0, [0, 2]),
        (1, [1, 3]),
        (0, [4, 6]),
        (1, [5, 7]),
    ]


def test_reopened_key_flushes_in_first_seen_order():
    # "a" is seen first, closes a window and reopens after "b" was
    # seen: the partials still flush "a" before "b".
    elements = [
        Record(0, key="a"),
        Record(1, key="a"),
        Record(2, key="b"),
        Record(3, key="a"),
        Record(4, key="c"),
    ]
    out = run_windowed(TumblingCountWindow(2), elements, fn=list)
    assert [(r.key, r.value) for r in out] == [
        ("a", [0, 1]),
        ("a", [3]),
        ("b", [2]),
        ("c", [4]),
    ]


def test_window_metadata_propagates_ingest():
    elements = [
        Record(0, ingest=12.0),
        Record(1, ingest=10.0),
        Record(2),
        Record(3, ingest=11.0),
        Record(4, ingest=15.0),
    ]
    out = run_windowed(TumblingCountWindow(2), elements, fn=list)
    # max ingest of the members, reset by each close; a partial keeps it
    assert [r.ingest for r in out] == [12.0, 11.0, 15.0]


def test_spec_validation():
    with pytest.raises(ValueError):
        TumblingCountWindow(0)
