"""CheckpointStore unit tests: atomic writes, checksums, header index."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.runtime.atomic_write import atomic_write, atomic_write_text
from repro.runtime.checkpoint import (
    MAGIC,
    CheckpointStore,
    UnfingerprintableError,
    as_store,
    fingerprint,
    function_identity,
    task_signature,
)
from repro.runtime.exceptions import CheckpointError


# ----------------------------------------------------------------------
# atomic_write
# ----------------------------------------------------------------------
class TestAtomicWrite:
    def test_writes_bytes_and_text(self, tmp_path):
        p = tmp_path / "a.bin"
        atomic_write(p, b"\x00\x01")
        assert p.read_bytes() == b"\x00\x01"
        atomic_write_text(p, "hello")
        assert p.read_text() == "hello"

    def test_replaces_existing_file(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("old")
        atomic_write(p, "new")
        assert p.read_text() == "new"

    def test_no_temp_file_left_behind(self, tmp_path):
        p = tmp_path / "a.txt"
        atomic_write(p, "data")
        assert os.listdir(tmp_path) == ["a.txt"]

    def test_failed_write_leaves_target_intact(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("original")
        with pytest.raises(TypeError):
            atomic_write(p, 12345)  # not str/bytes
        assert p.read_text() == "original"
        assert os.listdir(tmp_path) == ["a.txt"]


# ----------------------------------------------------------------------
# fingerprinting
# ----------------------------------------------------------------------
class TestFingerprint:
    def test_deterministic_across_calls(self):
        obj = {"a": [1, 2.5, "x"], "b": np.arange(6).reshape(2, 3)}
        assert fingerprint(obj) == fingerprint(obj)

    def test_value_sensitivity(self):
        a = np.arange(4.0)
        b = a.copy()
        b[0] += 1
        assert fingerprint(a) != fingerprint(b)

    def test_dtype_and_shape_matter(self):
        a = np.zeros(4, dtype=np.float32)
        b = np.zeros(4, dtype=np.float64)
        assert fingerprint(a) != fingerprint(b)
        assert fingerprint(np.zeros((2, 2))) != fingerprint(np.zeros(4))

    def test_dict_order_irrelevant(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_distinguishes_scalar_types(self):
        assert fingerprint(1) != fingerprint(1.0)
        assert fingerprint("1") != fingerprint(1)
        assert fingerprint(True) != fingerprint(1)

    def test_unfingerprintable_raises(self):
        with pytest.raises(UnfingerprintableError):
            fingerprint(lambda x: x)  # unpicklable local

    def test_function_identity_tracks_source(self):
        def f(x):
            return x + 1

        def g(x):
            return x + 2

        assert function_identity(f) != function_identity(g)
        assert function_identity(f) == function_identity(f)

    def test_task_signature_uses_resolver_for_futures(self):
        from repro.runtime.future import Future

        fut = Future(7, 0, runtime_id=1)
        ident = "abc"
        sig1 = task_signature(ident, (fut,), {}, resolve=lambda f: "sigA@0")
        sig2 = task_signature(ident, (fut,), {}, resolve=lambda f: "sigB@0")
        assert sig1 != sig2


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------
class TestCheckpointStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        values = (np.arange(5), {"k": 1}, "text")
        store.put("key1", "mytask", values)
        out = store.get("key1")
        assert out is not None
        np.testing.assert_array_equal(out[0], values[0])
        assert out[1:] == values[1:]

    def test_get_missing_returns_none(self, tmp_path):
        assert CheckpointStore(tmp_path).get("absent") is None

    def test_get_wrong_arity_discards(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.put("k", "t", (1, 2))
        assert store.get("k", expect=3) is None
        # the entry was discarded, not just skipped
        assert not store.contains("k")

    def test_overwrite_replaces(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.put("k", "t", (1,))
        store.put("k", "t", (2,))
        assert store.get("k") == (2,)
        assert store.stats()["n_entries"] == 1

    def test_checksum_mismatch_detected_logged_recomputed(self, tmp_path, caplog):
        store = CheckpointStore(tmp_path)
        entry = store.put("k", "t", (42,))
        with open(entry.path, "r+b") as fh:
            fh.seek(-1, 2)
            byte = fh.read(1)
            fh.seek(-1, 2)
            fh.write(bytes([byte[0] ^ 0xFF]))
        with caplog.at_level("WARNING", logger="repro.runtime.checkpoint"):
            assert store.get("k") is None
        assert any("corrupt" in r.message for r in caplog.records)
        # corrupt file deleted so it cannot shadow a future write
        assert not os.path.exists(entry.path)
        assert store.stats()["n_entries"] == 0

    def test_truncated_entry_is_corrupt(self, tmp_path):
        store = CheckpointStore(tmp_path)
        entry = store.put("k", "t", (np.arange(100),))
        data = open(entry.path, "rb").read()
        with open(entry.path, "wb") as fh:
            fh.write(data[: len(data) // 2])
        assert store.get("k") is None

    def test_garbage_file_is_corrupt(self, tmp_path):
        store = CheckpointStore(tmp_path)
        bad = store.entries_dir / "deadbeef.ckpt"
        bad.write_bytes(b"not a checkpoint")
        report = store.verify()
        assert bad.name in report.corrupt

    def test_put_is_one_atomic_write(self, tmp_path, monkeypatch):
        import repro.runtime.checkpoint as checkpoint

        writes = []

        def counting(path, data):
            writes.append(os.path.basename(path))
            atomic_write(path, data)

        monkeypatch.setattr(checkpoint, "atomic_write", counting)
        store = CheckpointStore(tmp_path)
        entry = store.put("k1", "t", (1,))
        assert writes == [os.path.basename(entry.path)]
        assert not (tmp_path / "manifest.json").exists()

    def test_legacy_manifest_is_ignored(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.put("k1", "t", (1,))
        (tmp_path / "manifest.json").write_text("{broken json")
        reopened = CheckpointStore(tmp_path)
        assert reopened.get("k1") == (1,)
        assert reopened.stats()["n_entries"] == 1
        assert reopened.verify().clean

    def test_entry_file_is_self_describing(self, tmp_path):
        store = CheckpointStore(tmp_path)
        entry = store.put("some key", "mytask", (1,))
        with open(entry.path, "rb") as fh:
            assert fh.read(len(MAGIC)) == MAGIC
            header = json.loads(fh.readline())
        assert header["key"] == "some key"
        assert header["task"] == "mytask"
        assert header["sha256"] == entry.sha256

    def test_verify_reports_ok_and_corrupt(self, tmp_path):
        store = CheckpointStore(tmp_path)
        e1 = store.put("k1", "t", (1,))
        e2 = store.put("k2", "t", (2,))
        assert store.verify().clean
        with open(e2.path, "r+b") as fh:
            fh.seek(-1, 2)
            fh.write(b"\x00")
        report = store.verify()
        assert report.ok == [os.path.basename(e1.path)]
        assert report.corrupt == [os.path.basename(e2.path)]
        assert not report.clean
        assert store.get("k1") == (1,)

    def test_prune_by_task(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.put("k1", "alpha", (1,))
        store.put("k2", "beta", (2,))
        removed = store.prune(task="alpha")
        assert len(removed) == 1
        assert store.get("k1") is None
        assert store.get("k2") == (2,)

    def test_prune_corrupt_only(self, tmp_path):
        store = CheckpointStore(tmp_path)
        e = store.put("k1", "t", (1,))
        store.put("k2", "t", (2,))
        with open(e.path, "r+b") as fh:
            fh.seek(-1, 2)
            fh.write(b"\x00")
        removed = store.prune(corrupt=True)
        assert len(removed) == 1
        assert store.get("k2") == (2,)

    def test_prune_older_than(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.put("k1", "t", (1,))
        assert store.prune(older_than=3600.0) == []
        assert len(store.prune(older_than=-1.0)) == 1

    def test_clear(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.put("k1", "t", (1,))
        store.clear()
        assert store.stats()["n_entries"] == 0
        assert list(store.entries()) == []

    def test_root_must_be_directory(self, tmp_path):
        f = tmp_path / "file"
        f.write_text("x")
        with pytest.raises(CheckpointError):
            CheckpointStore(f)

    def test_as_store_coercion(self, tmp_path):
        assert as_store(None) is None
        store = CheckpointStore(tmp_path)
        assert as_store(store) is store
        assert isinstance(as_store(tmp_path), CheckpointStore)

    def test_stats_by_task(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.put("k1", "a", (1,))
        store.put("k2", "a", (2,))
        store.put("k3", "b", (3,))
        stats = store.stats()
        assert stats["by_task"] == {"a": 2, "b": 1}
        assert stats["total_bytes"] > 0
