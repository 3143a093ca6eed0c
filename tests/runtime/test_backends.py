"""Unit tests of where a task body runs: in the scheduling thread
(``backend="threads"``) or through :mod:`repro.runtime.backends` on a
pool worker — serialization framing, worker pool lifecycle,
dispatch/fallback rules and crash detection (a body that kills its own
worker process)."""

from __future__ import annotations

import importlib
import os
import pickle
import threading

import numpy as np
import pytest

from repro.runtime import (
    NodeFailureError,
    Runtime,
    RuntimeConfig,
    TaskExecutionError,
    current_attempt,
    task,
    wait_on,
)
from repro.runtime import backends
from repro.runtime.backends import (
    _decode,
    _encode,
    get_worker_pool,
    shutdown_workers,
)
from tests.support.faults import kill_worker


# ----------------------------------------------------------------------
# module-level (worker-importable) probes
# ----------------------------------------------------------------------
@task(returns=1)
def _probe(x):
    """Which process ran me, on which attempt?"""
    return (os.getpid(), current_attempt(), x)


@task(returns=1)
def _crashing_probe(x, crashes):
    """``_probe`` whose first *crashes* attempts crash their process."""
    if current_attempt() < crashes:
        kill_worker("_crashing_probe")
    return (os.getpid(), current_attempt(), x)


@task(returns=1, on_failure="RETRY", max_retries=3)
def _flaky_probe(n_failures):
    """Deterministically fail the first *n_failures* attempts."""
    if current_attempt() < n_failures:
        raise ValueError(f"flaky attempt {current_attempt()}")
    return os.getpid()


@task(returns=1)
def _raise_value_error(msg):
    raise ValueError(msg)


@task(returns=2)
def _two_sums(block):
    a = np.asarray(block)
    return float(a.sum()), float((a * 2).sum())


class _ReprRaises:
    """Pickles fine; must never be printed."""

    def __repr__(self):
        raise AssertionError("repr() called on a task result")


class _Unpicklable(_ReprRaises):
    def __reduce__(self):
        raise TypeError("not picklable")


@task(returns=1)
def _make(kind):
    return {"repr_raises": _ReprRaises, "lock": threading.Lock, "unpicklable": _Unpicklable}[kind]()


@task(returns=1)
def _block_sum(block):
    return float(np.asarray(block).sum())


def _processes_cfg(**kw):
    return RuntimeConfig(backend="processes", max_workers=2, **kw)


@task(returns=1, max_retries=2)
def _pid_at_third_attempt():
    """Fails at attempts 0 and 1; returns where attempt 2 ran."""
    if current_attempt() < 2:
        raise ValueError(f"attempt {current_attempt()}")
    return os.getpid(), current_attempt()


@task(returns=1)
def _nested_pid_at_third_attempt():
    """Calls the retried task from its own body: inside a pool worker
    that call runs inline, retries included."""
    return _pid_at_third_attempt()


def _local_pid_at_third_attempt():
    @task(returns=1, max_retries=2)
    def local():
        if current_attempt() < 2:
            raise ValueError(f"attempt {current_attempt()}")
        return os.getpid(), current_attempt()

    return local


# ----------------------------------------------------------------------
# serialization framing
# ----------------------------------------------------------------------
def test_encode_decode_roundtrip_numpy_out_of_band():
    payload = {"x": np.arange(1024.0), "meta": ("a", 3)}
    frames = _encode(payload)
    # count header + pickle payload + at least one raw buffer frame:
    # protocol-5 out-of-band export kept the array out of the pickle
    n_buffers = int.from_bytes(frames[0], "little")
    assert n_buffers >= 1
    assert len(frames) == 2 + n_buffers
    assert len(frames[1]) < payload["x"].nbytes  # array not in payload
    decoded = _decode(frames)
    assert decoded["meta"] == ("a", 3)
    assert np.array_equal(decoded["x"], payload["x"])


def test_encode_rejects_unpicklable():
    import threading

    with pytest.raises(Exception):
        _encode(threading.Lock())


# ----------------------------------------------------------------------
# backend selection
# ----------------------------------------------------------------------
def test_config_validates_backend():
    with pytest.raises(ValueError):
        RuntimeConfig(backend="bogus")


def test_backend_from_env():
    cfg = RuntimeConfig.from_env(environ={"REPRO_BACKEND": "processes"})
    assert cfg.backend == "processes"
    assert RuntimeConfig.from_env(environ={}).backend == "threads"


def test_thread_backend_runs_in_coordinator():
    """Under threads the body runs in the coordinator, its record
    carries the coordinator's pid, and there are no backend counters."""
    with Runtime(config=RuntimeConfig(backend="threads", max_workers=2, collect_trace=True)) as rt:
        pid, attempt, x = wait_on(_probe(7))
        (record,) = rt.trace().records(name="_probe")
        stats = rt.stats()
    assert pid == record.pid == os.getpid()
    assert (attempt, x) == (0, 7)
    assert record.bytes_moved == record.bytes_saved == 0
    assert stats["backend"] == "threads"
    assert stats["backend_stats"] == {"backend": "threads"}


@pytest.mark.parametrize(
    "where", ["threads", "processes", "processes-inline", "worker-nested", "no-runtime"]
)
def test_current_attempt_reads_the_running_attempt(where):
    """A body at its third attempt reads 2 under the thread backend, in
    a pool worker, in the processes inline fallback (a ``<locals>``
    task), nested inside a pool-worker body and with no runtime."""
    fn = {
        "processes-inline": _local_pid_at_third_attempt(),
        "worker-nested": _nested_pid_at_third_attempt,
    }.get(where, _pid_at_third_attempt)
    if where == "no-runtime":
        assert fn() == (os.getpid(), 2)
        return
    cfg = RuntimeConfig(max_workers=2) if where == "threads" else _processes_cfg()
    with Runtime(config=cfg) as rt:
        pid, attempt = wait_on(fn())
        counts = rt.stats()["backend_stats"]
    assert attempt == 2
    assert current_attempt() == 0
    in_worker = where in ("processes", "worker-nested")
    assert (pid != os.getpid()) is in_worker
    if where != "threads":
        assert counts["dispatched"] == {"processes": 3, "worker-nested": 1}.get(where, 0)
        assert counts["inline"] == (3 if where == "processes-inline" else 0)


def test_thread_backend_simulates_worker_kill():
    """In-process, a body's worker kill is a NodeFailureError for the
    coordinator's pid (a real SIGKILL would take the caller down)."""
    with Runtime(config=RuntimeConfig(backend="threads", max_workers=2)):
        fut = _crashing_probe.opts(max_retries=0)(1, 1)
        with pytest.raises(TaskExecutionError) as err:
            wait_on(fut)
    cause = err.value.__cause__
    assert isinstance(cause, NodeFailureError)
    assert cause.pid == os.getpid()
    assert cause.task_name == "_crashing_probe"


# ----------------------------------------------------------------------
# process dispatch
# ----------------------------------------------------------------------
def test_dispatched_task_runs_in_worker_with_attempt():
    with Runtime(config=_processes_cfg()):
        pid, attempt, x = wait_on(_probe(11))
    assert pid != os.getpid()
    assert attempt == 0
    assert x == 11


def test_multi_return_task_dispatches():
    with Runtime(config=_processes_cfg()):
        s1, s2 = wait_on(list(_two_sums(np.ones(8))))
    assert (s1, s2) == (8.0, 16.0)


def test_worker_exception_transports_with_pid():
    with Runtime(config=_processes_cfg()) as rt:
        fut = _raise_value_error.opts(max_retries=0)("boom-42")
        with pytest.raises(TaskExecutionError) as err:
            wait_on(fut)
        trace = rt.trace()
    cause = err.value.__cause__
    assert isinstance(cause, ValueError)
    assert "boom-42" in str(cause)
    record = next(iter(trace.records(name="_raise_value_error")))
    assert record.status == "failed"
    assert record.pid is not None and record.pid != os.getpid()


def test_retries_run_with_increasing_attempts_across_workers():
    with Runtime(config=_processes_cfg()) as rt:
        pid = wait_on(_flaky_probe(2))
        trace = rt.trace()
    assert pid != os.getpid()
    records = sorted(trace.records(name="_flaky_probe"), key=lambda r: r.attempt)
    assert [r.status for r in records] == ["failed", "failed", "done"]


def test_worker_pool_is_shared_across_runtimes():
    pool = get_worker_pool()
    with Runtime(config=_processes_cfg()):
        wait_on(_probe(1))
    spawned_after_first = pool.spawned
    with Runtime(config=_processes_cfg()):
        wait_on(_probe(2))
    assert pool.spawned == spawned_after_first  # workers were reused


def test_a_worker_resolves_each_function_once(monkeypatch):
    imported = []
    real_import = backends.importlib.import_module

    def counted(name):
        imported.append(name)
        return real_import(name)

    monkeypatch.setattr(backends, "_worker_bodies", {})
    monkeypatch.setattr(backends.importlib, "import_module", counted)
    first = backends._worker_task_function(__name__, "_probe")
    assert first is _probe.spec.func
    assert backends._worker_task_function(__name__, "_probe") is first
    assert imported == [__name__]
    # a failure is not remembered: asked again, it is looked up again
    for _ in range(2):
        with pytest.raises(AttributeError):
            backends._worker_task_function(__name__, "_no_such_task")
    assert imported == [__name__] * 3
    assert list(backends._worker_bodies) == [(__name__, "_probe")]


def _package_tasks():
    """``(module, attribute, task)`` for every ``@task`` object defined
    by a module of the ``repro`` package."""
    import pkgutil

    import repro
    from repro.runtime.model import TaskSpec

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for attr, obj in vars(module).items():
            spec = getattr(obj, "spec", None)
            if isinstance(spec, TaskSpec) and spec.func.__module__ == info.name:
                yield info.name, attr, obj


def test_every_package_task_resolves_to_its_own_body():
    """A worker finds a task by ``(module, qualname)``: a task built in a
    local scope would run inline on the coordinator under processes."""
    tasks = list(_package_tasks())
    assert len(tasks) > 40
    for module, attr, obj in tasks:
        func = obj.spec.func
        resolved = backends._resolve_task_function(func.__module__, func.__qualname__)
        assert resolved is func, f"{module}.{attr}"


def test_success_reply_never_reprs_the_result():
    """The ``badresult`` fallback is built only when the reply fails to
    encode: a result whose ``__repr__`` raises comes back like any
    other (it used to kill the worker on every successful reply)."""
    with Runtime(config=_processes_cfg()) as rt:
        out = wait_on(_make("repr_raises"))
        stats = rt.stats()["backend_stats"]
    assert type(out) is _ReprRaises
    assert stats["dispatched"] == 1 and stats["inline"] == 0
    assert stats["result_fallbacks"] == stats["worker_crashes"] == 0


@pytest.mark.parametrize("kind", ["lock", "unpicklable"])
def test_unpicklable_result_recomputes_inline(kind):
    """badresult -> inline recompute, also when the value cannot even
    be printed for the fallback message."""
    with Runtime(config=_processes_cfg()) as rt:
        out = wait_on(_make(kind))
        stats = rt.stats()["backend_stats"]
    assert type(out) is (_Unpicklable if kind == "unpicklable" else type(threading.Lock()))
    assert stats["result_fallbacks"] == 1 and stats["inline"] == 1
    assert stats["worker_crashes"] == 0


# ----------------------------------------------------------------------
# worker cache hygiene across runtimes
# ----------------------------------------------------------------------
def _pool_cached_segments() -> list[str]:
    """Every segment name some idle pooled worker caches (asked over
    the pipe, behind whatever the worker was told before)."""
    pool = get_worker_pool()
    workers = [pool.acquire() for _ in range(pool.n_workers)]
    try:
        return [name for w in workers for name in _decode(w.call(_encode(("ping",))))[2]]
    finally:
        for w in workers:
            pool.release(w)


def test_pooled_workers_forget_a_store_when_its_runtime_exits(small_threshold):
    shutdown_workers()  # fresh workers: nothing cached from other tests
    for round_ in range(3):
        with Runtime(config=_processes_cfg()) as rt:
            prefix = rt.store.prefix
            refs = [rt.put(np.full(512, float(i))) for i in range(4)]
            assert wait_on([_block_sum(r) for r in refs]) == [512.0 * i for i in range(4)]
            assert any(name.startswith(prefix) for name in _pool_cached_segments())
        assert _pool_cached_segments() == [], f"round {round_}"


def test_forget_is_scoped_to_the_store_that_shut_down(small_threshold):
    shutdown_workers()
    block = np.ones(512)
    with Runtime(config=_processes_cfg()) as rt_a:
        ref_a = rt_a.put(block)
        assert wait_on(rt_a.submit_many([_block_sum.defer(ref_a)] * 4)) == [512.0] * 4
        with Runtime(config=_processes_cfg()) as rt_b:
            ref_b = rt_b.put(block)
            assert wait_on(rt_b.submit_many([_block_sum.defer(ref_b)] * 4)) == [512.0] * 4
            prefix_b = rt_b.store.prefix
            assert any(name.startswith(prefix_b) for name in _pool_cached_segments())
        # B is gone from every worker; A's segments were not evicted
        cached = _pool_cached_segments()
        assert cached and all(name.startswith(rt_a.store.prefix) for name in cached)
        assert wait_on(rt_a.submit_many([_block_sum.defer(ref_a)] * 4)) == [512.0] * 4
    assert _pool_cached_segments() == []


# ----------------------------------------------------------------------
# worker crashes (a body that kills its own process)
# ----------------------------------------------------------------------
def test_kill_worker_crash_recovers_by_retry_under_processes():
    """The worker process SIGKILLs itself mid-body; the coordinator sees
    the broken pipe, fails the attempt with NodeFailureError, and the
    failure-policy retry lands on a fresh worker and succeeds."""
    with Runtime(config=_processes_cfg()) as rt:
        pid, attempt, _ = wait_on(_crashing_probe.opts(max_retries=2)(5, 1))
        trace = rt.trace()
        stats = rt.stats()
    assert attempt == 1  # first attempt died, retry succeeded
    records = sorted(trace.records(name="_crashing_probe"), key=lambda r: r.attempt)
    assert [r.status for r in records] == ["failed", "done"]
    # the dead worker's pid is attributed to the failed attempt and
    # differs from the pid that completed the retry
    assert records[0].pid not in (None, os.getpid())
    assert records[0].pid != records[1].pid == pid
    assert "NodeFailureError" in records[0].error
    assert stats["backend_stats"]["worker_crashes"] == 1


def test_kill_worker_parity_under_threads():
    """The same body under the thread backend produces the same
    observable outcome via the NodeFailureError it raises in-process."""
    with Runtime(config=RuntimeConfig(backend="threads")) as rt:
        pid, attempt, _ = wait_on(_crashing_probe.opts(max_retries=2)(5, 1))
        trace = rt.trace()
    assert attempt == 1
    records = sorted(trace.records(name="_crashing_probe"), key=lambda r: r.attempt)
    assert [r.status for r in records] == ["failed", "done"]
    assert "NodeFailureError" in records[0].error
    assert pid == os.getpid()


def test_kill_worker_exhausting_retries_fails_task():
    with Runtime(config=_processes_cfg()):
        fut = _crashing_probe.opts(max_retries=1)(9, 2)
        with pytest.raises(TaskExecutionError) as err:
            wait_on(fut)
    assert isinstance(err.value.__cause__, NodeFailureError)


def test_node_failure_error_is_picklable():
    err = NodeFailureError(123, task_name="train")
    clone = pickle.loads(pickle.dumps(err))
    assert clone.pid == 123
    assert clone.task_name == "train"
    assert "123" in str(clone)
