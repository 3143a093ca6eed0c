"""What importing the package costs: networkx is for callers who ask
for ``TaskGraph.snapshot()``, not for the runtime, so neither a fresh
interpreter importing a subpackage nor a pool worker that ran ds-array
tasks has it loaded.  This module must not import networkx itself: a
worker imports it to resolve ``_networkx_loaded``."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
import repro.dsarray as ds
from repro.runtime import Runtime, RuntimeConfig, shutdown_workers, task, wait_on

#: the directory the repro under test was imported from
SRC = os.path.dirname(os.path.dirname(repro.__file__))


@pytest.mark.parametrize(
    "module", ["repro.runtime", "repro.dsarray", "repro.ml", "repro.streaming"]
)
def test_import_leaves_networkx_out(module):
    env = {**os.environ, "PYTHONPATH": SRC}
    code = f"import sys, {module}; print('networkx' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


@task(returns=1)
def _networkx_loaded():
    return os.getpid(), "networkx" in sys.modules


def test_a_worker_that_ran_dsarray_tasks_has_no_networkx():
    shutdown_workers()  # a fresh worker: earlier tests' modules are not in it
    cfg = RuntimeConfig(backend="processes", max_workers=1, collect_trace=True)
    with Runtime(config=cfg) as rt:
        x = ds.random_array((8, 8), (4, 4), random_state=0)
        assert (x @ x).collect().shape == (8, 8)
        pid, loaded = wait_on(_networkx_loaded())
        ds_pids = {r.pid for r in rt.trace() if r.name != "_networkx_loaded"}
        stats = rt.stats()["backend_stats"]
    assert stats["inline"] == 0
    assert ds_pids == {pid} and pid != os.getpid()
    assert not loaded
