"""The object store's inline threshold, lowered for tests.

Production ships arrays of 64 KiB and more by reference
(``repro.runtime.store.THRESHOLD_BYTES``); tests keep their blocks small
and lower the threshold instead.  The coordinator reads the constant at
every dispatch and sends it to the worker with the call, so patching it
here reaches the worker processes too."""

from __future__ import annotations

import pytest

import repro.runtime.store as store_mod

#: Threshold the tests run under: 1 KiB, so a 128-float block travels
#: by reference.
SMALL_THRESHOLD_BYTES = 1024


@pytest.fixture()
def small_threshold(monkeypatch):
    """Ship arrays of :data:`SMALL_THRESHOLD_BYTES` and more through
    the store for the duration of one test."""
    monkeypatch.setattr(store_mod, "THRESHOLD_BYTES", SMALL_THRESHOLD_BYTES)
    return SMALL_THRESHOLD_BYTES
