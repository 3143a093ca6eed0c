"""What importing the package costs, and what a worker process loads.

networkx is for callers who ask for ``TaskGraph.snapshot()``, and the
engine, its configuration, checkpointing and observability are for a
coordinator: neither a fresh interpreter importing a subpackage nor a
pool worker that ran ds-array and KMeans tasks has them loaded.  The
package names that live in those modules resolve on first access.

A worker imports this module to resolve the tasks below, so it must not
import networkx, nor a coordinator-only name of ``repro.runtime``, at
its top.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
import repro.dsarray as ds
import repro.ml
import repro.runtime
from repro.runtime import shutdown_workers, task, wait_on

#: the directory the repro under test was imported from
SRC = os.path.dirname(os.path.dirname(repro.__file__))

#: modules only a coordinator runs
COORDINATOR_ONLY = tuple(
    f"repro.runtime.{name}"
    for name in (
        "engine",
        "config",
        "checkpoint",
        "observability",
        "otlp",
        "dot",
        "flightrec",
    )
)

#: estimators no ds-array or KMeans task needs
OTHER_ESTIMATORS = ("repro.ml.svm", "repro.ml.trees")


def _fresh_import(module: str, watched: tuple[str, ...]) -> list[str]:
    """The *watched* modules a fresh interpreter has loaded after
    ``import module``."""
    env = {**os.environ, "PYTHONPATH": SRC}
    code = (
        f"import sys, {module}; "
        f"print(','.join(m for m in {watched!r} if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    return [m for m in out.stdout.strip().split(",") if m]


@pytest.mark.parametrize(
    "module", ["repro.runtime", "repro.dsarray", "repro.ml", "repro.streaming"]
)
def test_import_leaves_networkx_out(module):
    assert _fresh_import(module, ("networkx",)) == []


@pytest.mark.parametrize(
    "module", ["repro.runtime", "repro.runtime.backends", "repro.dsarray", "repro.ml"]
)
def test_import_leaves_coordinator_modules_out(module):
    assert _fresh_import(module, COORDINATOR_ONLY) == []


@task(returns=1)
def _loaded_modules():
    watched = ("networkx",) + COORDINATOR_ONLY + OTHER_ESTIMATORS
    return os.getpid(), [m for m in watched if m in sys.modules]


def test_a_worker_that_ran_dsarray_tasks_has_no_networkx():
    """Nor coordinator-only modules, nor estimators it did not run."""
    from repro.ml import KMeans
    from repro.runtime import Runtime, RuntimeConfig

    shutdown_workers()  # a fresh worker: earlier tests' modules are not in it
    cfg = RuntimeConfig(backend="processes", max_workers=1, collect_trace=True)
    with Runtime(config=cfg) as rt:
        rng = np.random.default_rng(0)
        x = ds.array(rng.random((8, 8)), (4, 4))
        assert (x @ x).collect().shape == (8, 8)
        points = ds.array(rng.random((40, 4)), (10, 4))
        KMeans(n_clusters=2, max_iter=2, random_state=0).fit(points)
        pid, loaded = wait_on(_loaded_modules())
        pids = {r.pid for r in rt.trace() if r.name != "_loaded_modules"}
        stats = rt.stats()["backend_stats"]
    assert stats["inline"] == 0
    assert pids == {pid} and pid != os.getpid()
    assert loaded == []


@pytest.mark.parametrize("package", [repro.runtime, repro.ml], ids=lambda p: p.__name__)
def test_every_public_name_is_its_defining_modules_object(package):
    listed = dir(package)
    for name in package.__all__:
        value = getattr(package, name)
        # classes and functions name their defining module; constants
        # (FAIL, POLICIES, ...) are checked against the package itself
        home = importlib.import_module(getattr(value, "__module__", package.__name__))
        assert getattr(home, name) is value, name
        assert name in listed, name


@pytest.mark.parametrize("package", [repro.runtime, repro.ml], ids=lambda p: p.__name__)
def test_an_unknown_name_raises_attribute_error(package):
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name
    assert not hasattr(package, "no_such_name")
    with pytest.raises(ImportError):
        exec(f"from {package.__name__} import no_such_name", {})


@task(returns=1)
def _plus_one(v):
    return v + 1


@task(returns=1)
def _nested_body(n):
    """Calls a nested task, ``wait_on`` and a ds-array op: in a worker
    there is no runtime, so all three run inline there."""
    from repro.runtime import active_runtime

    assert active_runtime() is None
    total = wait_on(_plus_one(n))
    x = ds.array(np.arange(16.0).reshape(4, 4), (2, 2))
    return os.getpid(), total, (x @ x).collect()


def test_a_dispatched_body_runs_nested_tasks_inline_in_the_worker():
    from repro.runtime import Runtime, RuntimeConfig

    _, want_total, want_product = _nested_body(41)  # no runtime: plain calls
    cfg = RuntimeConfig(backend="processes", max_workers=1)
    with Runtime(config=cfg) as rt:
        pid, total, product = wait_on(_nested_body(41))
        stats = rt.stats()["backend_stats"]
    assert stats["inline"] == 0
    assert pid != os.getpid()
    assert total == want_total == 42
    assert product.tobytes() == want_product.tobytes()
