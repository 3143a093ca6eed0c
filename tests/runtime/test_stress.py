"""The randomized runtime matrix: one hypothesis state machine.

The runtime promises that a task workflow gives the same results
sequentially, on threads or in worker processes, with nesting, INOUT
chains, retries, IGNOREd failures, priorities, batches, shared-memory
store traffic, barging waiters, small tasks run by the thread that
submits them, aborts and kills.  :class:`RuntimeMachine`
checks that promise by drawing one configuration per example (executor
and backend, store mode, observability, trace collection) and
then applying random operations both to the runtime and to a plain-Python
reference: the expected value of every future, the expected value of the
INOUT box and the expected bits of every array.  Every step runs under
the hang watchdog (:func:`tests.support.oracles.run_under_watchdog`),
so a lost wakeup fails the example with the stacks of every thread
instead of wedging the suite.  Teardown compares every resolved future
with the reference and audits the drained runtime: invariants, store
byte accounting, lifecycle rows against ``stats()``, enqueue stamps
against the trace, and leaked worker threads, ``/dev/shm`` segments and store pins.

The ``matrix`` hypothesis profile (``tests/conftest.py``) is
derandomized and small; ``pytest --hypothesis-profile=stress tests/runtime/test_stress.py``
draws fresh examples, many more of them (``make stress``).  The named
tests below replay, operation for operation, the seeded schedules the
earlier scenario harness pinned regressions with.
"""

from __future__ import annotations

import ast
import collections
import itertools
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    multiple,
    precondition,
    rule,
)

from repro.runtime import observability as obs
from repro.runtime.backends import current_attempt
from repro.runtime.config import RuntimeConfig
from repro.runtime.directions import INOUT
from repro.runtime.engine import Runtime, pop_runtime, push_runtime
from repro.runtime.exceptions import (
    CancelledTaskError,
    RuntimeStateError,
    TaskExecutionError,
    WorkflowAbortedError,
    WorkflowKilledError,
)
from repro.runtime.task import task
from tests.support.inline import warm
from tests.support.oracles import reconcile_store, run_under_watchdog

#: Every machine here stores 8 KiB blocks by reference: the store's
#: threshold is lowered for each test (``tests/support/store.py``).
pytestmark = pytest.mark.usefixtures("small_threshold")

#: Per-step hang watchdog (seconds).
TIMEOUT = 30.0

EXECUTORS = {
    "sequential": {"executor": "sequential"},
    "threads": {"executor": "threads", "backend": "threads"},
    "processes": {"executor": "threads", "backend": "processes"},
}

#: What a future may raise once the workflow was aborted or killed.
_TERMINAL_ERRORS = (
    WorkflowAbortedError,
    WorkflowKilledError,
    CancelledTaskError,
    TaskExecutionError,
    RuntimeStateError,
    KeyboardInterrupt,
)

_NAMES = itertools.count()


# ----------------------------------------------------------------------
# task vocabulary (module level, so worker processes can import it)
# ----------------------------------------------------------------------
@task(returns=1)
def _add(a, b):
    return a + b


@task(returns=1)
def _tiny_add(a, b):
    """``_add`` under another spec, warmed before each submission so its
    body estimate lets a ready call run on the submitting thread."""
    return a + b


@task(returns=1, on_failure="RETRY", max_retries=3)
def _flaky_add(a, b, failures=0):
    """Fails its first *failures* attempts.  Keyed on ``current_attempt()``,
    which holds on the coordinator and inside worker processes alike."""
    attempt = current_attempt()
    if attempt < failures:
        raise RuntimeError(f"injected flake (attempt {attempt})")
    return a + b


@task(returns=1, on_failure="IGNORE", failure_default=-1)
def _doomed(a):
    raise RuntimeError(f"swallowed by IGNORE ({a})")


@task(returns=1)
def _nested_sum(values):
    """One child per element, synchronised inside the task body: the
    help-while-waiting path under load."""
    from repro.runtime import wait_on

    return sum(wait_on([_add(v, 1) for v in values]))


@task(box=INOUT)
def _bump(box, by):
    box.value += by


@task(returns=1)
def _scale(block, k):
    """Integer-valued float blocks times integers stay bit-exact."""
    return block * k


@task(returns=1)
def _block_sum(a, b):
    return a + b


@task(returns=1)
def _boom(kind):
    if kind == "kill":
        raise WorkflowKilledError("injected kill")
    if kind == "interrupt":
        raise KeyboardInterrupt("injected interrupt")
    raise ValueError("injected failure")


_boom_abort = _boom.opts(on_failure="FAIL")


class _Box:
    """Mutable INOUT target; the runtime orders writers by identity."""

    def __init__(self) -> None:
        self.value = 0


# ----------------------------------------------------------------------
# the machine
# ----------------------------------------------------------------------
#: (axis, value) pairs drawn since the last reset, for the coverage check.
DRAWN: set[tuple[str, object]] = set()

_ints = st.integers(-50, 50).map(lambda v: (v, v))


class RuntimeMachine(RuleBasedStateMachine):
    """Operations on one runtime, mirrored on a reference model."""

    #: ``(future, expected int)``
    values = Bundle("values")
    #: ``(future or ObjectRef, expected ndarray)``
    arrays = Bundle("arrays")

    def __init__(self) -> None:
        super().__init__()
        self.rt: Runtime | None = None
        self.tracked: list[tuple] = []
        self.tracked_arrays: list[tuple] = []
        self.box = _Box()
        self.box_expected = 0
        self.waiters: list[threading.Thread] = []
        self.waiter_problems: list[str] = []
        #: The terminal rule that ended the example (None: still live).
        self.ended: str | None = None
        self.broken = False
        self.audits: list[str] = []
        self._guarding = False

    # -- plumbing -------------------------------------------------------
    def _guard(self, fn, label: str):
        """Run one step under the hang watchdog.  A step taken inside a
        guarded step (operations racing an abort) is already under it."""
        if self._guarding:
            return fn()
        self._guarding = True
        try:
            outcome = run_under_watchdog(fn, TIMEOUT, f"{self.rt.name}: {label}")
        finally:
            self._guarding = False
        if outcome["ok"]:
            return outcome["value"]
        self.broken = True
        if "error" in outcome:
            raise outcome["error"]
        raise AssertionError("\n".join(outcome["problems"]))

    def _track(self, fut, expected):
        self.tracked.append((fut, expected))
        return fut, expected

    def _join_waiters(self) -> None:
        for t in self.waiters:
            t.join()
        self.waiters.clear()

    def live(self) -> bool:
        return self.rt is not None and self.ended is None

    # -- configuration ----------------------------------------------------
    @initialize(
        executor=st.sampled_from(sorted(EXECUTORS)),
        store=st.sampled_from(["auto", "off"]),
        observability=st.sampled_from(["", "progress"]),
        collect_trace=st.booleans(),
    )
    def start(self, executor, store, observability, collect_trace, max_workers=3):
        self.executor = executor
        DRAWN.update([
            ("executor", executor),
            ("store", store),
            ("observability", observability),
            ("collect_trace", collect_trace),
        ])
        cfg = RuntimeConfig(
            **EXECUTORS[executor],
            max_workers=max_workers,
            name=f"machine-{next(_NAMES)}",
            collect_trace=collect_trace,
            observability=observability,
            store=store,
        )
        # Vary interleavings within each example, not only across them.
        self._switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        self.rt = Runtime(config=cfg)
        push_runtime(self.rt)

    # -- operations -------------------------------------------------------
    @precondition(live)
    @rule(
        target=values,
        a=_ints | values,
        b=_ints | values,
        priority=st.none() | st.integers(-5, 5),
    )
    def add(self, a, b, priority):
        fn = _add if priority is None else _add.opts(priority=priority)
        return self._track(self._guard(lambda: fn(a[0], b[0]), "add"), a[1] + b[1])

    @precondition(live)
    @rule(target=values, a=_ints | values, b=_ints | values)
    def warm_add(self, a, b):
        """A warm tiny spec: under threads, a call ready at submission
        runs inside ``submit`` on this thread (its estimate may have
        drifted up meanwhile; then it queues like any other)."""
        warm(_tiny_add, 0, 0)
        return self._track(self._guard(lambda: _tiny_add(a[0], b[0]), "warm_add"), a[1] + b[1])

    @precondition(live)
    @rule(target=values, a=_ints | values, b=_ints | values, failures=st.integers(1, 2))
    def flaky(self, a, b, failures):
        fut = self._guard(
            lambda: _flaky_add.opts(retry_backoff=0.0005)(a[0], b[0], failures=failures),
            "flaky",
        )
        return self._track(fut, a[1] + b[1])

    @precondition(live)
    @rule(target=values, a=_ints | values)
    def ignored(self, a):
        return self._track(self._guard(lambda: _doomed(a[0]), "ignored"), -1)

    @precondition(live)
    @rule(target=values, xs=st.lists(st.integers(-20, 20), min_size=2, max_size=5))
    def nested(self, xs):
        fut = self._guard(lambda: _nested_sum(xs), "nested")
        return self._track(fut, sum(xs) + len(xs))

    @precondition(live)
    @rule(by=st.integers(1, 9))
    def bump(self, by):
        self._guard(lambda: _bump(self.box, by), "bump")
        self.box_expected += by

    @precondition(live)
    @rule(
        target=values,
        pairs=st.lists(st.tuples(_ints | values, _ints | values), min_size=1, max_size=5),
    )
    def batch(self, pairs):
        futs = self._guard(
            lambda: self.rt.submit_many([_add.defer(a[0], b[0]) for a, b in pairs]),
            "submit_many",
        )
        return multiple(*(self._track(f, a[1] + b[1]) for f, (a, b) in zip(futs, pairs)))

    @precondition(live)
    @rule(
        target=arrays,
        base=st.none() | arrays,
        fill=st.integers(-9, 9),
        via_put=st.booleans(),
        k=st.integers(2, 5),
        addend=st.none() | st.integers(-9, 9),
    )
    def array_op(self, base, fill, via_put, k, addend):
        """Store traffic: 8 KiB blocks (over the 1 KiB store threshold
        every test here runs under), some placed with ``Runtime.put``,
        some stored by the backend."""
        if base is None:
            av = np.full((32, 32), float(fill))
            base = (self.rt.put(av) if via_put else av, av)
        a, av = base
        if addend is None:
            fut = self._guard(lambda: _scale(a, k), "scale")
            expected = av * k
        else:
            bv = np.full((32, 32), float(addend))
            fut = self._guard(lambda: _block_sum(a, bv), "block_sum")
            expected = av + bv
        self.tracked_arrays.append((fut, expected))
        return fut, expected

    @precondition(live)
    @rule(item=values)
    def wait_mid(self, item):
        fut, expected = item
        got = self._guard(lambda: self.rt.wait_on(fut), "mid-stream wait_on")
        assert got == expected, f"mid-stream wait_on returned {got!r}, expected {expected!r}"

    @precondition(
        lambda self: self.live() and self.executor != "sequential" and len(self.waiters) < 2
    )
    @rule(sub_seed=st.integers(0, 2**31))
    def barge(self, sub_seed):
        """A thread synchronising ten futures while the pool churns and
        the submitting thread keeps adding more: the waiter/worker race.
        It picks among the futures there are when it gets to each pick
        (none yet: it stops)."""
        local = random.Random(sub_seed)

        def wait_some():
            for _ in range(10):
                if not self.tracked:
                    return
                fut, expected = self.tracked[local.randrange(len(self.tracked))]
                try:
                    got = self.rt.wait_on(fut)
                except _TERMINAL_ERRORS:
                    return  # a later abort, kill or shutdown got there first
                if got != expected:
                    self.waiter_problems.append(
                        f"barging waiter saw {got!r} for task {fut.task_id}, "
                        f"expected {expected!r}"
                    )

        t = threading.Thread(
            target=wait_some, name=f"{self.rt.name}-waiter-{len(self.waiters)}", daemon=True
        )
        self.waiters.append(t)
        t.start()

    # -- terminal rules ---------------------------------------------------
    @precondition(live)
    @rule(after=st.lists(st.tuples(_ints | values, _ints | values), max_size=4))
    def abort(self, after):
        """An ``on_failure="FAIL"`` task aborts the workflow; submissions
        and retry timers race it."""
        self._abort(lambda: [self.add(a, b, None) for a, b in after])

    def _abort(self, then) -> None:
        """The abort, with *then()* submitting after the failing task."""
        self.ended = "abort"
        DRAWN.add(("end", "abort"))

        def body():
            try:
                _boom_abort("fail")
                then()
            except (WorkflowAbortedError, CancelledTaskError, TaskExecutionError):
                pass  # submissions racing the abort may observe it
            try:
                self.rt.barrier()
            except WorkflowAbortedError:
                pass
            else:
                raise AssertionError("barrier() after an abort did not raise")
            self._join_waiters()
            self.rt.shutdown(wait=True)

        self._guard(body, "abort")

    @precondition(live)
    @rule(kind=st.sampled_from(["kill", "interrupt"]))
    def kill(self, kind):
        """A task body raises ``WorkflowKilledError`` or a raw
        ``KeyboardInterrupt``; the workflow must die, not hang."""
        self.ended = "kill"
        DRAWN.add(("end", "kill"))

        def body():
            try:
                _boom(kind)
                self.rt.barrier()
            except (WorkflowKilledError, KeyboardInterrupt):
                pass
            else:
                raise AssertionError(f"kill ({kind}): barrier() did not raise")
            self._join_waiters()
            self.rt.shutdown(wait=False)

        self._guard(body, f"kill ({kind})")

    @precondition(live)
    @rule()
    def shutdown(self):
        """``shutdown(wait=True)`` races whatever is in flight; then the
        runtime refuses work."""
        self.ended = "shutdown"
        DRAWN.add(("end", "shutdown"))

        def body():
            self._join_waiters()
            if self.tracked_arrays:
                # Array refs die with the store at shutdown: check first.
                self.rt.barrier()
                self._check_arrays()
            self.rt.shutdown(wait=True)
            try:
                _add(1, 1)
            except RuntimeStateError:
                pass
            else:
                raise AssertionError("submit after shutdown did not raise")

        self._guard(body, "shutdown")

    @precondition(lambda self: self.ended is not None)
    @rule()
    def ended_idle(self):
        """Nothing is left to do after a terminal rule but teardown."""

    # -- teardown ---------------------------------------------------------
    def _check_arrays(self) -> None:
        """Bit-exact blocks, and no store pin left once drained."""
        for fut, expected in self.tracked_arrays:
            got = self.rt.get(fut)
            assert isinstance(got, np.ndarray) and np.array_equal(got, expected), (
                f"array result diverged: expected fill {expected.flat[0]!r}"
            )
        store = self.rt.stats()["store"]
        assert store is None or store["n_pinned"] == 0, f"{store['n_pinned']} store pins left"
        self.audits.append("arrays")

    def _check_values(self) -> None:
        """Every resolved future equals the reference.  After a clean
        drain every future must resolve; after an abort or kill the
        cancelled and failed ones are skipped."""
        clean = self.ended in (None, "shutdown")
        for fut, expected in self.tracked:
            if clean:
                got = self.rt.wait_on(fut)
            elif not fut.done:
                continue
            else:
                try:
                    got = fut.result()
                except _TERMINAL_ERRORS:
                    continue
            assert got == expected, (
                f"future of task {fut.task_id} resolved to {got!r}, expected {expected!r}"
            )
        if clean:
            assert self.box.value == self.box_expected, (
                f"INOUT box ended at {self.box.value}, expected {self.box_expected}"
            )
        self.audits.append("values")

    def _drain(self) -> None:
        """The clean end of an example that drew no terminal rule."""
        rt = self.rt
        self._join_waiters()
        rt.barrier()
        self._check_values()
        self._check_arrays()
        rt.shutdown(wait=True)

    def _check_ready_rows(self, rt) -> None:
        """Under a pool every attempt that was dispatched went through
        the ready queue: exactly one ``ready`` row, no later than its
        ``dispatched`` row."""
        ready: dict[int, list[float]] = collections.defaultdict(list)
        dispatched: dict[int, float] = {}
        for row in obs.lifecycle_events(rt._attempts()):
            if row["kind"] == "ready":
                ready[row["task_id"]].append(row["t"])
            elif row["kind"] == "dispatched":
                dispatched[row["task_id"]] = row["t"]
        for task_id, t_dispatch in dispatched.items():
            rows = ready.get(task_id, [])
            assert len(rows) == 1, f"task {task_id}: {len(rows)} ready rows"
            assert rows[0] <= t_dispatch, f"task {task_id}: ready after dispatch"
        self.audits.append("ready_rows")

    def _audit(self) -> None:
        rt, clean = self.rt, self.ended != "kill"
        if self.ended is not None:
            self._check_values()
        assert not self.waiter_problems, self.waiter_problems
        problems = rt.check_invariants(quiesced=clean)
        assert not problems, problems
        stats = rt.stats()
        terminal = collections.Counter(
            row["state"]
            for row in obs.lifecycle_events(rt._attempts())
            if row["kind"] in obs.TERMINAL_KINDS
        )
        by_state = {s: n for s, n in stats["by_state"].items() if s in obs.TERMINAL_KINDS}
        assert dict(terminal) == by_state, (dict(terminal), stats["by_state"])
        if self.executor != "sequential":
            self._check_ready_rows(rt)
        if not clean:
            return
        assert stats["ready_queue"] == 0
        if rt.config.collect_trace:
            # each record carries its attempt's enqueue stamp, so the
            # trace counts the enqueued attempts the table does
            trace = rt.trace()
            enqueued = {r.task_id: r.t_ready for r in trace}
            stamped = {i.task_id: i.t_ready for i in rt._attempts() if i.task_id in trace}
            assert enqueued == stamped, (enqueued, stamped)
            self.audits.append("enqueued")
        if (
            self.executor == "processes"
            and rt.config.store == "auto"
            and rt.config.collect_trace
        ):
            problems = reconcile_store(rt)
            assert not problems, problems
            self.audits.append("reconcile_store")
        # leaks (store pins are checked with the arrays, before shutdown)
        alive = [t.name for t in threading.enumerate() if t.name.startswith(f"{rt.name}-")]
        assert not alive, f"threads left alive: {alive}"
        if stats["store"] is not None:
            shm = Path("/dev/shm")
            left = sorted(p.name for p in shm.glob(f"{rt.store.prefix}*")) if shm.is_dir() else []
            assert not left, f"shared-memory segments left: {left}"
        self.audits.append("leaks")

    def teardown(self) -> None:
        rt = self.rt
        if rt is None:
            return
        try:
            if not self.broken:
                if self.ended is None:
                    DRAWN.add(("end", None))
                    self._guard(self._drain, "drain")
                self._guard(self._audit, "audit")
        finally:
            pop_runtime(rt)
            run_under_watchdog(lambda: rt.shutdown(wait=False), TIMEOUT, "teardown")
            sys.setswitchinterval(self._switch)


#: Runs the matrix's draw in a fresh interpreter under the profile named
#: by argv[1] and prints the drawn set.
_DRAW_IN_FRESH_INTERPRETER = """
import sys
from hypothesis import settings
from hypothesis.stateful import run_state_machine_as_test
import tests.runtime.test_stress as m
from tests.conftest import matrix_settings
settings.load_profile(sys.argv[1])
run_state_machine_as_test(m.RuntimeMachine, settings=matrix_settings())
print(repr(sorted(m.DRAWN, key=repr)))
"""


def test_every_scenario_family_is_reachable():
    """The matrix itself, sized by the hypothesis profile; the drawn
    configurations must cover every axis value and every ending.  The
    draw runs in a fresh interpreter, so what earlier tests leave in
    this process cannot starve an axis value."""
    root = Path(__file__).resolve().parents[2]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)])}
    out = subprocess.run(
        [sys.executable, "-c", _DRAW_IN_FRESH_INTERPRETER,
         settings.get_current_profile_name()],
        cwd=root, env=env, capture_output=True, text=True, timeout=1200,
    )
    assert out.returncode == 0, out.stderr[-4000:]
    drawn = set(ast.literal_eval(out.stdout.strip().splitlines()[-1]))
    expected = {
        *(("executor", e) for e in EXECUTORS),
        ("store", "auto"), ("store", "off"),
        *(("observability", o) for o in ("", "progress")),
        ("collect_trace", True), ("collect_trace", False),
        *(("end", e) for e in (None, "abort", "kill", "shutdown")),
    }
    assert expected <= drawn, sorted(expected - drawn, key=repr)


# ----------------------------------------------------------------------
# pinned schedules
# ----------------------------------------------------------------------
#: How a seeded schedule ended, by ``seed % 4``.
MODES = ("mixed", "abort", "kill", "shutdown")


def _replay(seed, n_ops=120, workers=4, backend="threads", store=False):
    """Replay the earlier harness's schedule for *seed*: the same draws
    from ``random.Random(seed)`` in the same order, the same operation
    mix, barging waiters and ending (``MODES[seed % 4]``), each step
    taken through the machine's rules.  Returns the torn-down machine."""
    rng = random.Random(seed)
    mode = MODES[seed % len(MODES)]
    m = RuntimeMachine()
    m.start(
        executor=backend, store="auto", observability="",
        collect_trace=store, max_workers=workers,
    )

    def operand():
        if m.tracked and rng.random() < 0.5:
            return m.tracked[rng.randrange(len(m.tracked))]
        v = rng.randint(-50, 50)
        return v, v

    def step():
        if store and rng.random() < 0.30:
            reuse = bool(m.tracked_arrays) and rng.random() < 0.5
            base = m.tracked_arrays[rng.randrange(len(m.tracked_arrays))] if reuse else None
            fill = 0 if reuse else rng.randint(-9, 9)
            via_put = not reuse and rng.random() < 0.5
            if rng.random() < 0.5:
                m.array_op(base, fill, via_put, k=rng.randint(2, 5), addend=None)
            else:
                m.array_op(base, fill, via_put, k=2, addend=rng.randint(-9, 9))
            return
        roll = rng.random()
        if roll < 0.45:
            a, b = operand(), operand()
            m.add(a, b, rng.randint(-5, 5) if rng.random() < 0.25 else None)
        elif roll < 0.60:
            a, b = operand(), operand()
            m.flaky(a, b, failures=rng.randint(1, 2))
        elif roll < 0.72:
            m.nested([rng.randint(-20, 20) for _ in range(rng.randint(2, 5))])
        elif roll < 0.85:
            m.bump(rng.randint(1, 9))
        elif m.tracked:
            m.wait_mid(m.tracked[rng.randrange(len(m.tracked))])

    def steps(n):
        for _ in range(n):
            step()

    def two_waiters():
        for _ in range(2):
            m.barge(rng.randint(0, 2**31))

    try:
        if mode == "mixed":  # teardown drains it
            two_waiters()
            steps(n_ops)
        elif mode == "abort":
            steps(n_ops // 2)
            two_waiters()
            m._abort(lambda: steps(n_ops - n_ops // 2))
        elif mode == "kill":
            kind = "kill" if rng.random() < 0.5 else "interrupt"
            steps(n_ops // 2)
            two_waiters()
            m.kill(kind)
        else:
            two_waiters()
            steps(n_ops)
            m.shutdown()
    finally:
        m.teardown()
    return m


#: seed -> operations of the run it was pinned in: the CI gate ran 0-4
#: and 7 at 120 operations, the unit suite 5 and 6 at 60 (4 workers).
SEED_OPS = {0: 120, 1: 120, 2: 120, 3: 120, 4: 120, 5: 60, 6: 60, 7: 120}


@pytest.mark.parametrize("seed", sorted(SEED_OPS))
def test_stress_seed_passes(seed):
    m = _replay(seed, n_ops=SEED_OPS[seed])
    assert "values" in m.audits and m.rt.n_tasks > 0


@pytest.mark.parametrize("seed", [0, 3, 4])
def test_stress_store_mode_passes(seed):
    m = _replay(seed, store=True)
    assert m.tracked_arrays and "arrays" in m.audits


def test_stress_store_mode_reconciles_on_processes():
    for seed in (0, 3):
        m = _replay(seed, workers=2, backend="processes", store=True)
        assert {"arrays", "reconcile_store", "leaks"} <= set(m.audits), seed


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_stress_family_passes_under_both_backends(seed):
    """Task counts may differ across backends: a nested task whose
    parent runs in a worker process is a plain call there, so the
    processes DAG is never larger.  After an abort, how many of the
    later submissions get in before one observes it is a race, so the
    abort family checks values only."""
    threads = _replay(seed, backend="threads")
    procs = _replay(seed, backend="processes")
    assert "values" in threads.audits and "values" in procs.audits
    if MODES[seed % len(MODES)] != "abort":
        assert 0 < procs.rt.n_tasks <= threads.rt.n_tasks


def test_same_seed_same_schedule():
    """A replay is a pure function of its seed: two runs submit the
    same task graph while the thread interleaving varies."""
    assert _replay(4, n_ops=50).rt.n_tasks == _replay(4, n_ops=50).rt.n_tasks
