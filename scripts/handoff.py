#!/usr/bin/env python
"""What handing a task to a worker thread costs, against running it
where it is submitted, by body size and CPU count.

Run from the repo root (``scripts/check.sh handoff`` does this)::

    PYTHONPATH=src python scripts/handoff.py [--tasks 1000] [--reps 15]

For each CPU set — the first CPU of this process's affinity, then all
of it — and each body — a no-op, then NumPy bodies (a dot product) calibrated
to about 2, 5, 10, 20 and 50 µs — it times floods of ``--tasks`` independent
tasks, each submitted with a per-call ``submit`` and all waited for
once, under three runtimes (``max_workers=2``, default config):

* ``seq``: ``executor="sequential"``, every body run at submission;
* ``pool``: ``executor="threads"`` with every task handed to a worker
  (``engine.INLINE_BELOW_S`` set to 0 for the run);
* ``auto``: ``executor="threads"`` as shipped, where a task whose spec's
  body estimate is below ``engine.INLINE_BELOW_S`` runs on the
  submitting thread.

The three alternate; each cell is the median over ``--reps`` rounds of
the best of three floods, in µs per task.  ``handoff`` is ``pool -
seq``: what a hand-off costs a body of that size, net of any overlap
the second CPU buys.  ``est`` is the spec's ``body_estimate`` after a
warm-up flood run where it is submitted (``seq``), the figure the rule
compares with the threshold.  DESIGN.md §27 cites this table for
``INLINE_BELOW_S``.

The process sets its own CPU affinity (``os.sched_setaffinity``) and
restores it on exit; nothing else about the machine is touched.
"""

from __future__ import annotations

import argparse
import os
import statistics
import time

import numpy as np

from repro.runtime import Runtime, RuntimeConfig, engine, task, wait_on

#: Body sizes the table covers, in µs (0: the no-op).
TARGETS_US = (0, 2, 5, 10, 20, 50)

_BUF = np.linspace(0.0, 1.0, 1 << 20)


@task(returns=1)
def noop(i):
    return i


@task(returns=1)
def numpy_body(n):
    """A dot product over *n* doubles: no allocation, so its time
    scales with *n* alone."""
    return float(np.dot(_BUF[:n], _BUF[:n]))


def _body_us(n: int, calls: int = 2000) -> float:
    """Best-of-five µs per call of ``numpy_body``'s function itself."""
    fn = numpy_body.spec.func
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn(n)
        best = min(best, (time.perf_counter() - t0) / calls)
    return best * 1e6


def calibrate(targets_us) -> dict[float, int]:
    """For each of *targets_us*, the array length on a ladder of
    lengths 1.25x apart whose ``numpy_body`` time here is closest."""
    ladder, n = [], 1
    while n <= len(_BUF):
        ladder.append((n, _body_us(n, calls=200)))
        n = max(n + 1, int(n * 1.25))
    return {t: min(ladder, key=lambda point: abs(point[1] - t))[0] for t in targets_us}


def _flood(executor: str, spec_call, n_tasks: int) -> float:
    """Seconds for one flood of *n_tasks* submissions plus the wait."""
    with Runtime(config=RuntimeConfig(executor=executor, max_workers=2)) as rt:
        t0 = time.perf_counter()
        futures = [spec_call(i) for i in range(n_tasks)]
        wait_on(futures)
        took = time.perf_counter() - t0
        rt.barrier()
    return took


def measure(spec_call, n_tasks: int, reps: int) -> dict[str, float]:
    """Median over *reps* rounds of each mode's best-of-three flood, in
    µs per task; the modes alternate within a round."""
    threshold = engine.INLINE_BELOW_S
    modes = {
        "seq": ("sequential", threshold),
        "pool": ("threads", 0.0),
        "auto": ("threads", threshold),
    }
    out: dict[str, list[float]] = {mode: [] for mode in modes}
    try:
        for _ in range(reps):
            for mode, (executor, below) in modes.items():
                engine.INLINE_BELOW_S = below
                best = min(_flood(executor, spec_call, n_tasks) for _ in range(3))
                out[mode].append(best / n_tasks * 1e6)
    finally:
        engine.INLINE_BELOW_S = threshold
    return {mode: statistics.median(vals) for mode, vals in out.items()}


def table(cpus: set[int], sizes: dict[int, int], n_tasks: int, reps: int) -> None:
    os.sched_setaffinity(0, cpus)
    print(f"\n{len(cpus)} CPU(s) {sorted(cpus)}: µs per task, {n_tasks}-task floods, "
          f"median of {reps} rounds of best-of-3; threshold "
          f"{engine.INLINE_BELOW_S * 1e6:.1f} µs")
    print(f"{'body':>10} {'est':>7} {'seq':>8} {'pool':>8} {'auto':>8} {'handoff':>8}")
    for target, n in sizes.items():
        if target == 0:
            call, label, spec = noop, "no-op", noop.spec
        else:
            call, label, spec = (lambda i, n=n: numpy_body(n)), f"~{target} µs", numpy_body.spec
        # warm the spec so ``auto`` sees an estimate from the first flood on
        spec.__dict__.pop("body_estimate", None)
        _flood("sequential", call, 200)
        est = spec.body_estimate
        got = measure(call, n_tasks, reps)
        print(f"{label:>10} {est * 1e6:7.2f} {got['seq']:8.2f} "
              f"{got['pool']:8.2f} {got['auto']:8.2f} {got['pool'] - got['seq']:8.2f}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tasks", type=int, default=1000, help="tasks per flood")
    ap.add_argument("--reps", type=int, default=15, help="rounds per cell")
    args = ap.parse_args()
    original = os.sched_getaffinity(0)
    first = {min(original)}
    try:
        os.sched_setaffinity(0, first)
        sizes = {0: 0, **calibrate(TARGETS_US[1:])}
        print("calibrated on one CPU: " + ", ".join(
            f"~{t} µs -> n={n} ({_body_us(n):.1f} µs)" for t, n in sizes.items() if t
        ))
        table(first, sizes, args.tasks, args.reps)
        if original != first:
            table(set(original), sizes, args.tasks, args.reps)
    finally:
        os.sched_setaffinity(0, original)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
