"""`repro checkpoint` — inspect / verify / prune a store from the CLI."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.runtime.checkpoint import CheckpointStore
from tests.support.faults import flip_last_byte


@pytest.fixture()
def store(tmp_path):
    s = CheckpointStore(tmp_path / "ckpt")
    s.put("sig-a", "train", (1, 2))
    s.put("sig-b", "train", (3,))
    s.put("sig-c", "merge", (4,))
    return s


def test_inspect_lists_entries(store, capsys):
    assert main(["checkpoint", "inspect", "--dir", str(store.root)]) == 0
    out = capsys.readouterr().out
    assert "entries  : 3" in out
    assert "train: 2" in out
    assert "merge: 1" in out


def test_verify_clean_store(store, capsys):
    assert main(["checkpoint", "verify", "--dir", str(store.root)]) == 0
    out = capsys.readouterr().out
    assert "ok       : 3" in out
    assert "corrupt  : 0" in out


def test_verify_flags_corruption(store, capsys):
    victim = next(store.entries())
    flip_last_byte(victim.path)
    assert main(["checkpoint", "verify", "--dir", str(store.root)]) == 1
    out = capsys.readouterr().out
    assert "corrupt  : 1" in out


def test_prune_requires_a_selector(store, capsys):
    assert main(["checkpoint", "prune", "--dir", str(store.root)]) == 2
    assert "--task/--corrupt/--older-than/--all" in capsys.readouterr().err


def test_prune_by_task(store, capsys):
    assert main(["checkpoint", "prune", "--dir", str(store.root), "--task", "train"]) == 0
    assert "removed 2 entries" in capsys.readouterr().out
    assert store.get("sig-c") == (4,)


def test_prune_all(store, capsys):
    assert main(["checkpoint", "prune", "--dir", str(store.root), "--all"]) == 0
    assert "removed 3 entries" in capsys.readouterr().out


def test_missing_dir_fails(tmp_path, capsys):
    assert main(["checkpoint", "inspect", "--dir", str(tmp_path / "nope")]) == 1
    assert "no checkpoint store" in capsys.readouterr().err
