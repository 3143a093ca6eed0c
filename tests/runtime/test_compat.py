"""PyCOMPSs-compatibility facade: paper-style code runs unmodified."""

from __future__ import annotations

import pytest

from repro.runtime import Runtime, task
from repro.runtime.compat import (
    compss_barrier,
    compss_delete_file,
    compss_delete_object,
    compss_open,
    compss_wait_on,
)


@task(returns=1)
def increment(v):
    return v + 1


def test_paper_style_snippet_runs_unmodified():
    """The canonical PyCOMPSs example, verbatim."""
    with Runtime(executor="threads"):
        value = 0
        for _ in range(4):
            value = increment(value)
        value = compss_wait_on(value)
    assert value == 4


def test_wait_on_multiple_returns_list():
    with Runtime(executor="sequential"):
        a, b = increment(1), increment(10)
        got = compss_wait_on(a, b)
    assert got == [2, 11]


def test_wait_on_nested_containers():
    with Runtime(executor="sequential"):
        futures = {"xs": [increment(i) for i in range(3)]}
        got = compss_wait_on(futures)
    assert got == {"xs": [1, 2, 3]}


def test_barrier_waits_for_all_tasks():
    done = []

    @task(returns=0)
    def record(i):
        done.append(i)

    with Runtime(executor="threads"):
        for i in range(5):
            record(i)
        compss_barrier()
        assert sorted(done) == [0, 1, 2, 3, 4]


def test_barrier_accepts_no_more_tasks_flag():
    with Runtime(executor="sequential"):
        increment(0)
        compss_barrier(no_more_tasks=True)


def test_compss_open_syncs_producer(tmp_path):
    @task(returns=1)
    def write_file(path):
        with open(path, "w") as fh:
            fh.write("payload")
        return path

    target = str(tmp_path / "out.txt")
    with Runtime(executor="threads"):
        fut = write_file(target)
        with compss_open(fut) as fh:
            assert fh.read() == "payload"


def test_compss_open_rejects_non_path():
    with Runtime(executor="sequential"):
        with pytest.raises(TypeError):
            compss_open(increment(1))


def test_delete_helpers(tmp_path):
    p = tmp_path / "junk.txt"
    p.write_text("x")
    assert compss_delete_object(object()) is True
    assert compss_delete_file(str(p)) is True
    assert not p.exists()
    assert compss_delete_file(str(tmp_path / "missing.txt")) is False


def test_facade_importable_from_package_root():
    import repro.runtime as rr

    assert rr.compss_wait_on is compss_wait_on
    assert rr.compss_barrier is compss_barrier


def test_works_without_runtime():
    assert compss_wait_on(increment(7)) == 8
    compss_barrier()


def test_compss_delete_object_releases_store_refs():
    import numpy as np

    with Runtime(executor="threads") as rt:
        ref = rt.put(np.ones(64))
        assert ref in rt.store
        assert compss_delete_object(ref) is True
        assert ref not in rt.store
