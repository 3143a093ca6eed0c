"""The active-runtime lookup: a thread's binding first, then the
innermost entered runtime — and no engine import to answer it."""

from __future__ import annotations

import os
import subprocess
import sys
import threading

import repro
from repro.runtime import Runtime, active, active_runtime, engine, task, wait_on


def test_no_runtime_outside_a_with_block():
    assert active_runtime() is None
    assert active._tls.bound is None


def test_the_innermost_entered_runtime_governs():
    with Runtime(executor="sequential") as outer:
        assert active_runtime() is outer
        with Runtime(executor="sequential") as inner:
            assert active_runtime() is inner
        assert active_runtime() is outer
    assert active_runtime() is None


def test_push_and_pop_are_the_engines_and_popping_twice_is_harmless():
    assert engine.push_runtime is active.push_runtime
    assert engine.pop_runtime is active.pop_runtime
    assert engine._tls is active._tls
    rt = Runtime(executor="sequential")
    try:
        active.push_runtime(rt)
        assert active_runtime() is rt
        active.pop_runtime(rt)
        active.pop_runtime(rt)
        assert active_runtime() is None
    finally:
        rt.shutdown()


def test_a_task_body_sees_its_own_runtime_through_its_scope():
    """A thread running a body is bound to that attempt, which answers
    its runtime."""

    @task(returns=1)
    def whose():
        bound = active._tls.bound
        return bound.runtime is active_runtime(), bound.task_id

    with Runtime(executor="threads", max_workers=2) as rt:
        fut = whose()
        same, task_id = wait_on(fut)
        assert active_runtime() is rt
    assert same and task_id == fut.task_id


def test_a_bound_thread_beats_the_stack_and_an_unbound_thread_sees_it():
    seen: dict[str, object] = {}
    with Runtime(executor="sequential") as outer, Runtime(executor="sequential") as inner:

        def bound():
            prev = outer.bind_current_thread()
            try:
                seen["bound"] = active_runtime()
            finally:
                outer.release_current_thread(prev)
            seen["released"] = active_runtime()

        def unbound():
            seen["unbound"] = active_runtime()

        for target in (bound, unbound):
            t = threading.Thread(target=target)
            t.start()
            t.join()
    assert seen == {"bound": outer, "released": inner, "unbound": inner}


def test_the_lookup_does_not_import_the_engine():
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(repro.__file__))}
    code = (
        "import sys; from repro.runtime.active import active_runtime; "
        "assert active_runtime() is None; print('repro.runtime.engine' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
