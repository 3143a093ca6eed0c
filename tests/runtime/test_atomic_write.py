"""Unit tests of :mod:`repro.runtime.atomic_write` — the primitive the
checkpoint store's crash-consistency guarantees are built on."""

from __future__ import annotations

import os
import threading

import pytest

from repro.runtime.atomic_write import atomic_write


def _tmp_residue(directory):
    return [p for p in os.listdir(directory) if p.endswith(".tmp")]


def test_writes_bytes_and_str(tmp_path):
    target = tmp_path / "blob.bin"
    atomic_write(target, b"\x00\x01binary")
    assert target.read_bytes() == b"\x00\x01binary"
    atomic_write(target, "text payload")
    assert target.read_text() == "text payload"
    assert _tmp_residue(tmp_path) == []


def test_text_alias_and_encoding(tmp_path):
    target = tmp_path / "note.txt"
    atomic_write(target, "héllo", encoding="latin-1")
    assert target.read_bytes() == "héllo".encode("latin-1")


def test_replaces_existing_file_completely(tmp_path):
    target = tmp_path / "state.json"
    atomic_write(target, b"x" * 4096)
    atomic_write(target, b"short")
    # the replace is whole-file: no stale tail from the longer version
    assert target.read_bytes() == b"short"


def test_crash_window_before_rename_leaves_old_content(tmp_path):
    """A crash after the temp write but before the rename (simulated by
    a failing ``os.replace``) must leave the previous complete file in
    place and no temp-file litter behind."""
    target = tmp_path / "manifest.json"
    atomic_write(target, b"generation-1")

    real_replace = os.replace

    def exploding_replace(src, dst):
        raise OSError("simulated crash at the rename boundary")

    os.replace = exploding_replace
    try:
        with pytest.raises(OSError, match="simulated crash"):
            atomic_write(target, b"generation-2")
    finally:
        os.replace = real_replace
    assert target.read_bytes() == b"generation-1"
    assert _tmp_residue(tmp_path) == []


def test_crash_window_on_first_write_leaves_no_file(tmp_path):
    target = tmp_path / "fresh.json"
    real_replace = os.replace
    os.replace = lambda src, dst: (_ for _ in ()).throw(OSError("boom"))
    try:
        with pytest.raises(OSError):
            atomic_write(target, b"never lands")
    finally:
        os.replace = real_replace
    assert not target.exists()
    assert _tmp_residue(tmp_path) == []


def test_concurrent_writers_never_expose_torn_content(tmp_path):
    """Many threads rewriting one path: every read observes one
    writer's *complete* payload, never an interleaving."""
    target = tmp_path / "hot.txt"
    payloads = [f"writer-{i}:" + str(i) * 2000 for i in range(8)]
    atomic_write(target, payloads[0])
    stop = threading.Event()
    torn: list[str] = []

    def writer(payload: str):
        while not stop.is_set():
            atomic_write(target, payload)

    def reader():
        while not stop.is_set():
            content = target.read_text()
            if content not in payloads:
                torn.append(content[:50])
                return

    threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
    threads += [threading.Thread(target=reader) for _ in range(3)]
    for t in threads:
        t.start()
    try:
        threading.Event().wait(0.5)
    finally:
        stop.set()
        for t in threads:
            t.join()
    assert torn == []
    assert target.read_text() in payloads
    assert _tmp_residue(tmp_path) == []
