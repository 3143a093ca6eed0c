"""Benchmark protocol shared by every workload.

One workload run happens in its own subprocess (``run.py --child``):

* **set-up** (inputs from the seed, pools, sqlite, models and one
  discarded full-size warm-up round) is timed, and repeated through
  section (a) for ``SETUP_SHARE`` of its time: ``setup_s``;
* **section (a)** repeats the identical short timed section until the
  ``--seconds`` budget is used (never fewer than ``MIN_REPS``); every
  repetition gets a fresh ``Runtime`` created and shut down *outside*
  the timed section, and its outputs go through the workload's oracle;
* **section (b)** (serving workloads) paces single items and measures
  the latency of each;
* a **traced** run (``--trace 1``) instead does one set-up, three
  untraced repetitions for a base wall, one repetition with the span
  recorder on, and the workload's ablations and micro-benchmarks.

Every timed piece sits between two readings of the host's speed (see
``Calibrator``), and the reported value of a timing is the **median** of
the run's pieces, each divided by the speed reading around it, see
``normalised``.  Everything is pinned to ``WORKERS`` workers, and the
workload subprocess to one CPU, see ``pin_cpu``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import glob
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import uuid
from pathlib import Path
from typing import Any

import spans as spanlib

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REFS = BENCH / "refs.json"
#: the part of the provenance stamp a frozen reference depends on:
#: bit-identical outputs only mean something on the numeric stack that
#: produced them
NUMERIC_ENV = ("python", "numpy", "scipy", "machine", "cpu")
WORKERS = 2
MIN_REPS = 3
#: untraced repetitions behind the traced run's base wall
BASE_REPS = 3
#: share of section (a) spent repeating the set-up
SETUP_SHARE = 0.25
#: calibration readings at each boundary of a paced window
WINDOW_CAL_READINGS = 5
#: what the calibration work takes on this box when the host is quiet:
#: timings are reported as seconds at that host speed
CAL_NOMINAL_S = 0.0035
#: BLAS pools are pinned to one thread so they do not oversubscribe
#: the two runtime workers; the value is part of the provenance stamp.
BLAS_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
CHILD_TIMEOUT_S = 170

clock = time.perf_counter


def manifest() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def summary(values: list[float]) -> dict:
    """The reported value of a sample — its median — with n and
    quartiles alongside."""
    vals = sorted(float(v) for v in values)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = vals[0]
    return {"value": statistics.median(vals), "n": len(vals), "q1": q1, "q3": q3}


def normalised(pieces: list[tuple[float, float, float]]) -> list[float]:
    """``(duration, speed reading before, speed reading after)`` of each
    timed piece → its duration at the reference host speed.

    The host this runs on slows the whole guest by 1.3x-2x for seconds
    to minutes at a time (co-tenants; no guest counter sees it): over
    ten runs of the same code the median wall spread 10-31 % and two
    sets of ten, twenty minutes apart, differed by up to 24 %.  The
    calibration work slows with the workload, so the quotient repeats:
    5-11 % spread, sets within 7 %.  Raw seconds stay in the result
    file (``rep_walls_s``, ``rep_cals_s``)."""
    return [t * CAL_NOMINAL_S / ((before + after) / 2) for t, before, after in pieces]


def percentile(values: list[float], q: float) -> float:
    vals = sorted(values)
    if not vals:
        return 0.0
    return vals[min(len(vals) - 1, int(q * len(vals)))]


# ----------------------------------------------------------------------
# host-speed calibration
# ----------------------------------------------------------------------
class Calibrator:
    """A fixed piece of work whose duration says how fast the host runs
    *right now*: BLAS, FFT and sort kernels on small arrays, then thread
    hand-offs through two queues — what every workload here is made of.
    It is the benchmark's own, so no change to the program moves it.
    (An interpreter-only loop was tried as well: it stays in the L1
    cache, barely feels the co-tenants and tracked the workloads
    worst.)"""

    def __init__(self) -> None:
        import queue

        import numpy as np

        self._np = np
        self._a = np.random.default_rng(0).standard_normal((192, 192))
        self._s = np.random.default_rng(1).standard_normal(1 << 15)
        self._there: Any = queue.SimpleQueue()
        self._back: Any = queue.SimpleQueue()
        self._echo = threading.Thread(target=self._echo_loop, name="bench-cal", daemon=True)
        self._echo.start()
        for _ in range(20):
            self()

    def _echo_loop(self) -> None:
        while (item := self._there.get()) is not None:
            self._back.put(item)

    def close(self) -> None:
        self._there.put(None)
        self._echo.join()

    def __call__(self) -> float:
        """Do the work; the seconds it took."""
        np = self._np
        t0 = clock()
        for _ in range(4):
            (self._a @ self._a).sum()
        np.fft.rfft(self._s.reshape(64, -1), axis=1)
        np.sort(self._s)
        there, back = self._there, self._back
        for i in range(250):
            there.put(i)
            back.get()
        return clock() - t0


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------
def mismatches(got: Any, want: Any) -> int:
    """Number of wrong answers in *got* against the reference *want*.

    Dicts and sequences are compared element by element (a missing or
    extra element is one wrong answer each), arrays bit for bit, floats
    exactly: every reference here is either a closed form or the same
    computation on another executor, which the runtime promises to be
    bit-identical."""
    import numpy as np

    if isinstance(want, dict):
        if not isinstance(got, dict):
            return max(len(want), 1)
        return sum(
            mismatches(got[k], v) if k in got else 1 for k, v in want.items()
        ) + sum(1 for k in got if k not in want)
    if isinstance(want, np.ndarray):
        ok = isinstance(got, np.ndarray) and got.shape == want.shape and np.array_equal(got, want)
        return 0 if ok else 1
    if isinstance(want, (list, tuple)):
        if not isinstance(got, (list, tuple)):
            return max(len(want), 1)
        wrong = abs(len(got) - len(want))
        return wrong + sum(mismatches(g, w) for g, w in zip(got, want))
    return 0 if got == want else 1


def corrupt(got: Any) -> Any:
    """A copy of *got* with one answer made wrong (``--smoke`` uses it
    to prove the oracle trips)."""
    import numpy as np

    if isinstance(got, dict):
        key = next(iter(got))
        return {**got, key: corrupt(got[key])}
    if isinstance(got, np.ndarray):
        bad = np.array(got, dtype=float, copy=True)
        bad.flat[0] += 1.0
        return bad
    if isinstance(got, (list, tuple)):
        return [corrupt(got[0]), *got[1:]]
    if isinstance(got, (int, float)):
        return got + 1
    return None


# ----------------------------------------------------------------------
# workload interface
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Rep:
    """One timed repetition."""

    wall_s: float
    #: operations completed (the unit ``ops_per_s`` counts)
    ops: int
    got: Any
    #: hygiene breaches, each named
    problems: list[str] = dataclasses.field(default_factory=list)
    #: raw per-layer readings of this repetition
    layer: dict[str, float] = dataclasses.field(default_factory=dict)
    #: id of the recorder's root span (traced repetitions only)
    root_span: int | None = None
    tasks: list[dict] = dataclasses.field(default_factory=list)


class Workload:
    """One benchmark workload.  Subclasses freeze their sizes in
    ``FULL`` (and a seconds-scale ``SMOKE``)."""

    name = ""
    #: what one operation is (the unit of ``ops_per_s``)
    op = "task"
    #: where the oracle's reference outputs come from
    reference = "closed form"
    #: keep the cyclic GC out of timed sections whose cost per
    #: operation is microseconds
    gc_off = False
    #: share of ``--seconds`` given to section (a); the rest paces
    #: section (b)
    share_a = 1.0
    FULL: dict[str, Any] = {}
    SMOKE: dict[str, Any] = {}

    def __init__(self, seed: int, smoke: bool, rec: spanlib.Recorder):
        self.seed = seed
        self.smoke = smoke
        self.sz = dict(self.SMOKE if smoke else self.FULL)
        #: running totals over everything the run does — repetitions,
        #: paced section, ablations, micro-benchmarks: operations run,
        #: operations wrong against the reference, and hygiene breaches
        #: (each named; each counts as one failure)
        self.attempted = 0
        self.wrong = 0
        self.problems: list[str] = []
        self.rec = rec
        #: reference outputs, built by ``setup``
        self.want: Any = None
        #: per-layer readings taken during set-up, and by ``latency``
        self.setup_layer: dict[str, float] = {}
        self.latency_layer: dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what ``setup`` made (pools, temp dirs)."""

    def rep(self, **pins: Any) -> Rep:
        """One timed repetition; *pins* override ``RuntimeConfig``
        fields (ablations)."""
        raise NotImplementedError

    def latency(self, seconds: float, calibrate) -> list[dict] | None:
        """Section (b), for workloads that serve items as they arrive:
        a series of paced windows, each ``{"samples_ms", "cal_s"}`` —
        its items' latencies and the readings of *calibrate* before and
        after it; per-layer readings go to ``latency_layer``.  None for
        a run-to-completion workload: what its caller waits for is the
        whole repetition."""
        return None

    def extras(self, base_wall: float, layer: dict[str, float]) -> dict[str, float]:
        """Traced pass only: ablations and micro-benchmarks.  *layer*
        holds the traced repetition's readings."""
        return {}

    # -- helpers for ``extras`` ------------------------------------------
    def ablate(self, n: int = 2, **pins: Any) -> float:
        """Median wall of *n* repetitions under *pins*; their outputs
        go through the oracle like any other repetition."""
        return statistics.median(
            run_rep(self, **pins).wall_s for _ in range(1 if self.smoke else n)
        )

    def seq_baseline(self, layer: dict[str, float]) -> dict[str, float]:
        """The same repetition on one thread (``executor="sequential"``):
        its wall, and how much the threaded run inflated task bodies."""
        with self.rec.recording("seq"):
            seq = run_rep(self, executor="sequential")
        seq_body = seq.layer.get("engine.body_s", 0.0)
        return {
            "engine.seq_wall_s": seq.wall_s,
            "engine.body_inflation": (
                layer.get("engine.body_s", 0.0) / seq_body if seq_body else 0.0
            ),
        }


def pin_cpu() -> int:
    """Pin this process (and the threads and processes it starts) to
    the highest-numbered CPU it may use; returns that CPU.

    The threads backend serialises its workers on the GIL.  Left on two
    vCPUs the kernel sometimes keeps them on one CPU and sometimes
    spreads them, and the spread regime pays a cross-CPU hand-off per
    submit -> notify -> wake: the same code then reads 1.5x-4x slower,
    flipping between the two from process to process.  One CPU is the
    regime that repeats, and what it reads is the program's own cost."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_rep(wl: Workload, **pins: Any) -> Rep:
    """One repetition, its outputs through the oracle."""
    gc.collect()
    if wl.gc_off:
        gc.disable()
    try:
        rep = wl.rep(**pins)
    finally:
        gc.enable()
    wl.attempted += rep.ops
    wl.wrong += mismatches(rep.got, wl.want)
    wl.problems += rep.problems
    return rep


# ----------------------------------------------------------------------
# runtime instrumentation (from outside: public methods and stats only)
# ----------------------------------------------------------------------
RUNTIME_SPANS = {
    "submit": "engine.submit",
    "submit_many": "engine.submit",
    "wait_on": "engine.gather",
    "barrier": "engine.gather",
    "put": "store.put",
    "get": "store.get",
}


def engine_layer(rt, rec: spanlib.Recorder, driver: int) -> tuple[dict, list[dict]]:
    """Per-layer readings of one quiesced runtime: what it publishes
    through ``stats()`` and ``trace()``, plus the recorder's submit and
    gather spans."""
    stats = rt.stats()
    sched = stats["scheduler"]
    layer = {
        "engine.tasks": stats["n_tasks"],
        "engine.edges": stats["n_edges"],
        "engine.worker_parks": sched["worker_parks"],
        "engine.idle_wakeups": sched["idle_wakeups"],
        "engine.notifies": sched["notifies"],
        "engine.submit_contentions": sched["submit_contentions"],
        "engine.fused_units": sched["fused_units"],
        "engine.fused_tasks": sched["fused_tasks"],
    }
    dep = queue = dispatch = body = 0.0
    by_name: dict[str, float] = {}
    tasks: list[dict] = []
    for r in rt.trace():
        body += r.duration
        by_name[r.name] = by_name.get(r.name, 0.0) + r.duration
        if r.t_submit is not None and r.t_ready is not None:
            dep += max(r.t_ready - r.t_submit, 0.0)
        queue += r.queue_wait
        if r.t_dispatch is not None:
            dispatch += max(r.t_start - r.t_dispatch, 0.0)
        tasks.append(
            {
                "task_id": r.task_id, "name": r.name, "parent_id": r.parent_id,
                "t_submit": r.t_submit, "t_ready": r.t_ready,
                "t_dispatch": r.t_dispatch, "t_start": r.t_start,
                "t_end": r.t_end, "worker": r.worker, "pid": r.pid,
            }
        )
    layer.update(
        {
            "engine.dep_wait_s": dep,
            "engine.queue_wait_s": queue,
            "engine.dispatch_s": dispatch,
            "engine.body_s": body,
        }
    )
    layer.update({f"body.{name}": secs for name, secs in by_name.items()})
    if stats["n_tasks"]:
        layer["engine.submit_us"] = (
            rec.total("engine.submit", rec.rep) / stats["n_tasks"] * 1e6
        )
        layer["engine.gather_s"] = rec.total("engine.gather", rec.rep, driver)
    backend = stats["backend_stats"]
    if backend.get("backend") == "processes":
        hits, misses = backend["locality_hits"], backend["locality_misses"]
        layer.update(
            {
                "backends.dispatched": backend["dispatched"],
                "backends.inline_fallbacks": backend["inline"],
                "backends.pipe_bytes_sent": backend["pipe_bytes_sent"],
                "backends.pipe_bytes_recv": backend["pipe_bytes_recv"],
                "backends.serialization_s": backend["serialization_seconds"],
                "backends.worker_crashes": backend["worker_crashes"],
                "store.bytes_moved": backend["store_bytes_moved"],
                "store.bytes_saved": backend["store_bytes_saved"],
                "store.hit_rate": backend["store_hit_rate"],
                "store.locality_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            }
        )
    store = stats["store"]
    if store is not None:
        layer.update(
            {
                "store.puts": store["puts"],
                "store.gets": store["gets"],
                "store.spills": store["spills"],
                "store.resident_mb": store["bytes_resident"] / 2**20,
            }
        )
    return layer, tasks


def runtime_problems(rt, label: str) -> list[str]:
    """Hygiene of one quiesced runtime."""
    problems = [f"{label}: {p}" for p in rt.check_invariants(quiesced=True)]
    stats = rt.stats()
    store = stats["store"]
    if stats["backend"] == "threads" and store is not None:
        if store["puts"] or store["gets"] or store["adopted"]:
            problems.append(f"{label}: store used under the threads backend")
    return problems


class Section:
    """One timed section: times it, roots its spans when tracing, and
    gathers what the runtime behind it publishes."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.rec = wl.rec
        self.driver = threading.get_ident()
        self.wall_s = 0.0
        self.problems: list[str] = []
        self.layer: dict[str, float] = {}
        self.tasks: list[dict] = []
        self.root_span: int | None = None

    @contextlib.contextmanager
    def timed(self):
        with self.rec.span("rep") as self.root_span:
            t0 = clock()
            yield
            self.wall_s = clock() - t0

    def part(self, name: str):
        """One named part of the repetition: a span when tracing."""
        return self.rec.span(name)

    def read_runtime(self, rt) -> None:
        """Check and read a drained runtime before it shuts down."""
        self.problems += runtime_problems(rt, self.wl.name)
        if self.rec.enabled:
            layer, self.tasks = engine_layer(rt, self.rec, self.driver)
            self.layer.update(layer)

    def result(self, ops: int, got: Any) -> Rep:
        return Rep(
            wall_s=self.wall_s, ops=ops, got=got,
            problems=self.problems,
            layer=self.layer, root_span=self.root_span, tasks=self.tasks,
        )


class BenchRuntime(Section):
    """A fresh ``Runtime`` for one repetition: default ``RuntimeConfig``
    apart from ``max_workers`` and the workload's pins, created and
    shut down outside the timed section.  On exit the runtime is
    drained, checked (``check_invariants(quiesced=True)``) and read
    (``stats()``, ``trace()``) before it shuts down."""

    def __init__(self, wl: Workload, **pins: Any):
        from repro.runtime import Runtime, RuntimeConfig

        super().__init__(wl)
        self.rt = Runtime(config=RuntimeConfig(max_workers=WORKERS, **pins))
        self._stack = contextlib.ExitStack()

    def __enter__(self) -> "BenchRuntime":
        self._stack.enter_context(self.rt)
        self._stack.enter_context(self.rec.patch(self.rt, RUNTIME_SPANS))
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        try:
            if exc_type is None:
                self.rt.barrier()
                self.read_runtime(self.rt)
        finally:
            self._stack.close()
        return False


# ----------------------------------------------------------------------
# the protocol (child side)
# ----------------------------------------------------------------------
def _timed_setup(wl: Workload) -> float:
    gc.collect()
    t0 = clock()
    with wl.rec.span("setup"):
        wl.setup()
    return clock() - t0


def measure(wl: Workload, seconds: float, smoke: bool) -> dict:
    """End-to-end run: recorder off, default config."""
    t_begin = clock()
    cal = Calibrator()
    setups: list[tuple[float, float, float]] = []

    def timed_setup() -> None:
        before = cal()
        took = _timed_setup(wl)
        setups.append((took, before, cal()))

    timed_setup()
    budget = seconds * wl.share_a
    min_reps = 1 if smoke else MIN_REPS
    reps: list[Rep] = []
    cals = [cal()]
    t0 = clock()
    while True:
        started = clock() - t0
        if len(reps) >= min_reps and started + started / len(reps) > budget:
            break
        if not smoke and sum(s[0] for s in setups[1:]) < SETUP_SHARE * started:
            # the other set-ups are spread over section (a), so that
            # one slow spell of the host cannot cover them all
            wl.teardown()
            timed_setup()
            cals[-1] = setups[-1][2]
        reps.append(run_rep(wl))
        cals.append(cal())
        if len(reps) == min_reps:
            # memory is read after a fixed number of rounds, not at the
            # end: how many more repetitions fit depends on their speed
            own_rss = _maxrss_mb(resource.RUSAGE_SELF)
    wall = summary(normalised([(r.wall_s, cals[i], cals[i + 1]) for i, r in enumerate(reps)]))

    # a run holds few paced windows, so each boundary gets a steadier
    # reading than the one-shot between repetitions
    windows = wl.latency(
        seconds * (1.0 - wl.share_a),
        lambda: statistics.median(cal() for _ in range(WINDOW_CAL_READINGS)),
    )
    if windows is None:
        latency = {k: v * 1e3 if k != "n" else v for k, v in wall.items()}
    else:
        latency = summary(
            normalised([(percentile(w["samples_ms"], 0.5), *w["cal_s"]) for w in windows])
        )

    corrupted = mismatches(corrupt(reps[-1].got), wl.want) if smoke else None
    wl.teardown()
    cal.close()
    return {
        "metrics": {
            "setup_s": summary(normalised(setups)),
            "wall_s": wall,
            "ops_per_s": {
                "value": reps[0].ops / wall["value"], "n": wall["n"],
                "q1": reps[0].ops / wall["q3"], "q3": reps[0].ops / wall["q1"],
            },
            "latency_ms": latency,
        },
        "own_rss_mb": own_rss,
        "op": wl.op,
        "sizes": wl.sz,
        "rep_walls_s": [r.wall_s for r in reps],
        "rep_cals_s": cals,
        "setups_s": setups,
        "lat_windows": windows,
        "elapsed_s": clock() - t_begin,
        "oracle_trips_on_corruption": corrupted,
    }


def measure_traced(wl: Workload, seconds: float, smoke: bool, names: list[str]) -> dict:
    """Traced run: the per-layer numbers.  Nothing here feeds an
    end-to-end metric."""
    t_begin = clock()
    rec = wl.rec
    with rec.recording("setup"):
        setup_s = _timed_setup(wl)
    layer: dict[str, float] = dict(wl.setup_layer)

    base = [run_rep(wl) for _ in range(1 if smoke else BASE_REPS)]
    base_wall = statistics.median(r.wall_s for r in base)
    with rec.recording("traced"):
        traced = run_rep(wl)
    layer.update(traced.layer)
    layer["bench.recorder_overhead_frac"] = traced.wall_s / base_wall - 1.0

    breakdown = None
    if traced.root_span is not None:
        duration, rows, residue = rec.breakdown(traced.root_span)
        layer["engine.residue_frac"] = residue / duration if duration else 0.0
        breakdown = {
            "wall_s": duration,
            "rows": [
                {"name": n, "calls": c, "total_s": t, "self_s": s} for n, c, t, s in rows
            ],
            "residue_s": residue,
        }

    with rec.recording("latency"):
        wl.latency(seconds * (1.0 - wl.share_a), lambda: 1.0)
    layer.update(wl.latency_layer)
    layer.update(wl.extras(base_wall, layer))
    wl.teardown()

    OUT.mkdir(exist_ok=True)
    rec.dump(OUT / f"{wl.name}.spans.json", wl.name, traced.tasks)
    metrics = {name: float(layer.get(name, 0.0)) for name in names}
    return {
        "layer": metrics,
        "breakdown": breakdown,
        "base_wall_s": base_wall,
        "traced_wall_s": traced.wall_s,
        "setup_s": setup_s,
        "sizes": wl.sz,
        "elapsed_s": clock() - t_begin,
    }


def totals(wl: Workload) -> dict:
    """What the run attempted and failed, with the subprocess's own
    exit hygiene folded in."""
    problems = wl.problems + exit_problems()
    return {
        "attempted": wl.attempted,
        "failed": wl.wrong + len(problems),
        "problems": problems,
    }


def exit_problems() -> list[str]:
    """Hygiene of the workload subprocess just before it exits."""
    import multiprocessing

    from repro.runtime import shutdown_workers

    shutdown_workers()
    problems = []
    alive = [
        t.name for t in threading.enumerate()
        if t is not threading.main_thread() and t.is_alive() and not t.daemon
    ]
    if alive:
        problems.append(f"live non-daemon threads at exit: {alive}")
    children = multiprocessing.active_children()
    if children:
        problems.append(f"live child processes at exit: {[c.pid for c in children]}")
    segments = glob.glob(f"/dev/shm/rs{os.getpid():x}g*")
    if segments:
        problems.append(f"shared-memory segments left: {segments}")
    return problems


def _maxrss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def children_rss_mb() -> float:
    """Largest ``ru_maxrss`` among this process's waited-for children
    (the pool's worker processes, once ``shutdown_workers`` joined
    them), in MiB."""
    return _maxrss_mb(resource.RUSAGE_CHILDREN)


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    """Provenance of a workload subprocess.  It starts no process of
    its own: a fork would count against ``peak_rss_mb``."""
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "workers": WORKERS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "cpu": cpu,
        "blas_threads": BLAS_ENV,
    }


# ----------------------------------------------------------------------
# parent side: one workload subprocess
# ----------------------------------------------------------------------
class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def run_child(
    workload: str, seed: int, seconds: float, trace: bool,
    smoke: bool = False, freeze: bool = False,
) -> dict:
    """Run one workload subprocess (own session, own temp dir inside
    the checkout) and return its result with the post-exit hygiene
    breaches folded in."""
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchError(f"the program under test is missing: {ROOT / 'src' / 'repro'}")
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{uuid.uuid4().hex[:10]}"
    tmp.mkdir()
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["TMPDIR"] = str(tmp)
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--child",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if trace else "0",
    ]
    if smoke:
        cmd.append("--smoke")
    if freeze:
        cmd.append("--freeze-refs")
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)
        raise BenchError(f"{workload}: no result within {CHILD_TIMEOUT_S} s") from None
    stragglers = _kill_group(proc.pid, grace_s=2.0)
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if proc.returncode != 0 or not lines:
        shutil.rmtree(tmp, ignore_errors=True)
        raise BenchError(f"{workload}: subprocess exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    breaches = []
    if stragglers:
        breaches.append("processes outlived the workload subprocess")
    leftovers = sorted(p.name for p in tmp.iterdir())
    if leftovers:
        breaches.append(f"temp files left: {leftovers}")
    segments = glob.glob(f"/dev/shm/rs{proc.pid:x}g*")
    if segments:
        breaches.append(f"shared-memory segments left: {segments}")
    shutil.rmtree(tmp, ignore_errors=True)
    result["problems"] += breaches
    result["failed"] += len(breaches)
    result["env"]["git_sha"] = git_sha()
    return result


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except (ProcessLookupError, PermissionError):
        return False
    return True


def _wait_group_gone(pgid: int, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while _group_alive(pgid):
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.02)
    return True


def _kill_group(pgid: int, grace_s: float = 0.0) -> bool:
    """Make sure nothing of the child's process group survives.  The
    group gets *grace_s* to empty by itself (multiprocessing's resource
    tracker exits a moment after its parent); True when something had
    to be killed."""
    if _wait_group_gone(pgid, grace_s):
        return False
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        return False
    _wait_group_gone(pgid, 5.0)
    return True
