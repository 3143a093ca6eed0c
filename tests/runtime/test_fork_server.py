"""The pool's workers are forked from a preloaded fork server, and
``shutdown_workers()`` stops that server with the pool.

Forked workers are children of the server, not of the coordinator, so
these tests pin what the coordinator can still see: live workers in
``multiprocessing.active_children()``, no process left after
``shutdown_workers()``, the workers' peak RSS in ``RUSAGE_CHILDREN``,
a pool that restarts, and a silent interpreter exit.  Each reading is
taken in a fresh subprocess, so children of the test session cannot
mask it.  The workers import this module to resolve the tasks below.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np

from repro.runtime import task

ROOT = pathlib.Path(__file__).resolve().parents[2]

_PRELUDE = """
import json, os, resource
from repro.runtime import Runtime, RuntimeConfig, shutdown_workers, wait_on
from tests.runtime.test_fork_server import _pid, _touch

def children():
    from multiprocessing import resource_tracker
    pids = set()
    for path in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{path}/children") as fh:
            pids.update(int(p) for p in fh.read().split())
    return pids - {resource_tracker._resource_tracker._pid}

def worker_pids(n=2):
    cfg = RuntimeConfig(backend="processes", max_workers=n)
    with Runtime(config=cfg):
        return sorted(set(wait_on([_pid(i) for i in range(4 * n)])))
"""


@task(returns=1)
def _pid(_i):
    time.sleep(0.02)  # long enough for both workers to be busy at once
    return os.getpid()


@task(returns=1)
def _touch(mib):
    """Make this worker's resident set grow by *mib* MiB."""
    np.ones(mib * 2**17).sum()
    return os.getpid()


def _run(body: str, **kw) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")) if p
    )
    script = _PRELUDE + textwrap.dedent(body)
    return subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=120, **kw,
    )


def _reading(body: str) -> dict:
    proc = _run(body)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_active_children_lists_live_workers():
    out = _reading("""
        import multiprocessing
        cfg = RuntimeConfig(backend="processes", max_workers=2)
        with Runtime(config=cfg):
            pids = set(wait_on([_pid(i) for i in range(8)]))
            live = {p.pid for p in multiprocessing.active_children()}
        shutdown_workers()
        print(json.dumps({"workers": sorted(pids), "live": sorted(live),
                          "me": os.getpid()}))
    """)
    assert os.getpid() not in out["workers"] and out["me"] not in out["workers"]
    assert len(out["workers"]) == 2
    assert set(out["workers"]) <= set(out["live"])


def test_no_process_outlives_shutdown_workers():
    out = _reading("""
        import multiprocessing
        before = children()
        workers = worker_pids()
        during = children()
        shutdown_workers()
        print(json.dumps({"before": sorted(before), "during": sorted(during),
                          "workers": workers, "after": sorted(children()),
                          "mp_children": len(multiprocessing.active_children())}))
    """)
    assert out["before"] == []
    assert out["during"]  # at least the server, if not the workers too
    assert len(out["workers"]) == 2
    assert out["after"] == []
    assert out["mp_children"] == 0
    for pid in out["workers"]:
        assert not pathlib.Path(f"/proc/{pid}").exists()


def test_children_rusage_covers_the_workers_after_shutdown():
    out = _reading("""
        cfg = RuntimeConfig(backend="processes", max_workers=1)
        with Runtime(config=cfg):
            wait_on(_touch(96))
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        shutdown_workers()
        after = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        print(json.dumps({"before_mib": before / 1024, "after_mib": after / 1024}))
    """)
    assert out["before_mib"] < 64  # nothing reaped while the pool is up
    assert out["after_mib"] >= 96


def test_pool_restarts_after_shutdown_and_a_second_shutdown_is_a_no_op():
    out = _reading("""
        from multiprocessing import forkserver
        first = worker_pids()
        shutdown_workers()
        second = worker_pids()
        shutdown_workers()
        shutdown_workers()
        print(json.dumps({"first": first, "second": second,
                          "server": forkserver._forkserver._forkserver_pid,
                          "after": sorted(children())}))
    """)
    assert len(out["first"]) == len(out["second"]) == 2
    assert not set(out["first"]) & set(out["second"])
    assert out["server"] is None
    assert out["after"] == []


def test_shutdown_workers_without_a_pool_starts_no_server():
    out = _reading("""
        import sys
        with Runtime(executor="threads"):
            pass
        shutdown_workers()
        print(json.dumps({"imported": "multiprocessing.forkserver" in sys.modules,
                          "after": sorted(children())}))
    """)
    assert out == {"imported": False, "after": []}


def test_exit_with_a_live_pool_is_silent_and_leaves_no_process():
    """No ``shutdown_workers()``.  The script imports multiprocessing
    only through the pool, so multiprocessing's exit finalizer runs
    before the ``atexit`` hook and removes the server's socket first."""
    proc = _run(
        """
        workers = worker_pids()
        print(os.getpid())
        """,
        start_new_session=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    pgid = int(proc.stdout.split()[-1])
    deadline = time.monotonic() + 5.0
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            break
        if time.monotonic() > deadline:
            os.killpg(pgid, signal.SIGKILL)
            raise AssertionError("processes outlived the script")
        time.sleep(0.02)
