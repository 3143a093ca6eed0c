"""Figure 11c — Random Forest training time vs core count: the paper's
negative result.

The paper observes "very bad scalability" and attributes it to (1) the
small number of tasks the algorithm generates — independent of block
size — and (2) load imbalance between the per-tree tasks.  Both causes
are structural, so they reproduce in the replayed DAG: 40 estimators
yield ~200 single-core tasks, which one or two 48-core nodes already
saturate.
"""

from __future__ import annotations

import pytest

import repro.dsarray as ds
from repro.cluster import NodeSpec, core_sweep, format_sweep, speedups
from repro.ml import RandomForestClassifier
from repro.runtime import Runtime, wait_on
from benchmarks.conftest import make_blobs

NODE = NodeSpec(cores=48, name="mn4")


@pytest.fixture(scope="module")
def rf_run():
    """The forest's trace, and the rows of every subtree partition: the
    index arrays the ``_node_split`` tasks hand the ``_build_subtree``
    tasks (seeded, so the same on every run)."""
    x, y = make_blobs(n=3000, d=48, sep=1.2, seed=3)
    with Runtime(executor="threads", max_workers=8) as rt:
        dx = ds.array(x, block_size=(250, 48))
        dy = ds.array(y, block_size=(250, 1))
        RandomForestClassifier(n_estimators=40, distr_depth=1, random_state=0).fit(dx, dy)
        rt.barrier()
        splits = [inst for inst in rt._attempts() if inst.name == "_node_split"]
        rows = [len(part) for inst in splits for part in wait_on(list(inst.futures[1:]))]
        return rt.trace(), rows


@pytest.fixture(scope="module")
def rf_trace(rf_run):
    return rf_run[0]


def _skewed(rows) -> bool:
    """The largest subtree partition holds at least 1.5x the rows of
    the smallest."""
    return max(rows) >= 1.5 * min(rows)


def test_fig11c_rf_poor_scaling(benchmark, rf_trace, write_result):
    points = benchmark.pedantic(
        core_sweep,
        args=(rf_trace, NODE, [1, 2, 3, 4]),
        rounds=1,
        iterations=1,
    )
    table = format_sweep(points, "Fig 11c: Random Forest training time (simulated)")
    write_result("fig11c_rf_scaling", table)

    sp = speedups(points)
    benchmark.extra_info["speedup_192"] = sp[192]

    # Shape criteria: RF must NOT scale like CSVM/KNN.  Beyond 2 nodes
    # there is nothing left to parallelise (task count < cores).
    times = {p.total_cores: p.makespan for p in points}
    assert sp[192] < 2.0, f"RF should scale poorly, got {sp}"
    assert times[192] >= times[96] * 0.9, "no meaningful gain beyond 2 nodes"


def test_fig11c_task_count_small_and_block_independent():
    """Cause (1): the task count is small and does not grow with the
    number of blocks (unlike CSVM/KNN)."""
    x, y = make_blobs(n=1200, d=24, sep=1.2, seed=4)

    def rf_task_count(row_block):
        with Runtime(executor="sequential") as rt:
            dx = ds.array(x, block_size=(row_block, 24))
            dy = ds.array(y, block_size=(row_block, 1))
            RandomForestClassifier(n_estimators=10, distr_depth=1, random_state=0).fit(dx, dy)
            counts = rt.graph.count_by_name()
        return {
            k: v
            for k, v in counts.items()
            if k in ("_bootstrap", "_node_split", "_build_subtree", "_join_node")
        }

    assert rf_task_count(100) == rf_task_count(400)


def test_fig11c_load_imbalance_present(rf_run):
    """Cause (2): the per-tree build tasks are unequal.  What drives a
    ``_build_subtree``'s duration is the rows of the partition it grows
    a tree over, and each root split hands its two subtrees unequal
    ones.  Asserted on those rows, not on the measured durations, which
    vary with the host's load from run to run."""
    trace, rows = rf_run
    assert len(rows) == sum(r.name == "_build_subtree" for r in trace) >= 40
    assert _skewed(rows), (min(rows), max(rows))
    # A balanced forest, every split halving its bootstrap, fails it.
    assert not _skewed([3000 // 2] * len(rows))
