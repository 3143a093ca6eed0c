"""Cross-cutting property-based invariants.

These tie the subsystems together: random DAGs must execute identically
on both executors, and the simulator must respect the two classical
scheduling lower bounds on any machine.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, NodeSpec, simulate
from repro.cluster.analysis import critical_path
from repro.runtime import INOUT, Runtime, task, wait_on
from repro.runtime.tracing import TaskRecord, Trace


# ----------------------------------------------------------------------
# random DAG generation
# ----------------------------------------------------------------------
@st.composite
def random_dag(draw):
    """A random DAG as (n_tasks, list of dep-sets over earlier ids)."""
    n = draw(st.integers(1, 20))
    deps = []
    for i in range(n):
        if i == 0:
            deps.append(frozenset())
        else:
            k = draw(st.integers(0, min(i, 3)))
            deps.append(frozenset(draw(st.sets(st.integers(0, i - 1), min_size=k, max_size=k))))
    return n, deps


@st.composite
def random_trace(draw):
    n, deps = draw(random_dag())
    durations = [draw(st.floats(0.01, 5.0)) for _ in range(n)]
    cores = [draw(st.integers(1, 4)) for _ in range(n)]
    records = [
        TaskRecord(
            task_id=i,
            name=f"t{i % 3}",
            deps=tuple(sorted(deps[i])),
            t_start=0.0,
            t_end=durations[i],
            computing_units=cores[i],
        )
        for i in range(n)
    ]
    return Trace(records)


# ----------------------------------------------------------------------
# simulator invariants
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(random_trace(), st.integers(1, 4), st.integers(4, 16))
def test_simulator_lower_bounds(trace, n_nodes, cores):
    """makespan >= critical path and makespan >= work / capacity."""
    cluster = ClusterSpec(node=NodeSpec(cores=cores), n_nodes=n_nodes)
    res = simulate(trace, cluster)
    _, cp = critical_path(trace)
    assert res.makespan >= cp - 1e-9
    total_work = sum(r.duration * r.computing_units for r in trace)
    assert res.makespan >= total_work / cluster.total_cores - 1e-9
    # all tasks placed exactly once, inside the horizon
    assert len(res.placements) == len(trace)
    for p in res.placements.values():
        assert 0.0 <= p.t_start <= p.t_end <= res.makespan + 1e-9


@settings(max_examples=40, deadline=None)
@given(random_trace())
def test_simulator_dependencies_respected(trace):
    cluster = ClusterSpec(node=NodeSpec(cores=8), n_nodes=2)
    res = simulate(trace, cluster)
    for rec in trace:
        for dep in rec.deps:
            assert (
                res.placements[dep].t_end <= res.placements[rec.task_id].t_start + 1e-9
            )


@settings(max_examples=30, deadline=None)
@given(random_trace(), st.integers(1, 3))
def test_more_nodes_never_hurt_much(trace, n_nodes):
    """Greedy list scheduling is not strictly monotone, but within the
    classic 2x Graham bound a bigger machine must not catastrophically
    regress."""
    small = simulate(trace, ClusterSpec(node=NodeSpec(cores=8), n_nodes=n_nodes))
    big = simulate(trace, ClusterSpec(node=NodeSpec(cores=8), n_nodes=n_nodes + 2))
    assert big.makespan <= small.makespan * 2.0 + 1e-9


# ----------------------------------------------------------------------
# executor equivalence on random DAGs
# ----------------------------------------------------------------------
@task(returns=1)
def _combine(deps_values, salt):
    return float(sum(deps_values) + salt)


def _run_dag(executor: str, n: int, deps: list[frozenset]) -> list[float]:
    with Runtime(executor=executor, max_workers=4):
        futures: list = []
        for i in range(n):
            inputs = [futures[d] for d in sorted(deps[i])]
            futures.append(_combine(inputs, i + 1))
        return wait_on(futures)


@settings(max_examples=25, deadline=None)
@given(random_dag())
def test_executors_agree(dag):
    n, deps = dag
    seq = _run_dag("sequential", n, deps)
    thr = _run_dag("threads", n, deps)
    assert seq == thr


@task(acc=INOUT)
def _bump(acc, v):
    acc += v


@task(returns=1)
def _total(acc):
    return float(np.sum(acc))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=1, max_size=15), st.sampled_from(["sequential", "threads"]))
def test_inout_chain_order_preserved(values, executor):
    """Property: INOUT version chains serialise correctly under both
    executors — the final accumulator equals the plain Python sum."""
    with Runtime(executor=executor, max_workers=3):
        acc = np.zeros(3)
        for v in values:
            _bump(acc, v)
        result = wait_on(_total(acc))
    assert result == pytest.approx(3 * sum(values), abs=1e-9)


@st.composite
def random_matrix_pair(draw):
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    n = draw(st.integers(2, 12))
    k = draw(st.integers(2, 12))
    m = draw(st.integers(2, 12))
    bs = draw(st.integers(1, 6))
    return rng.standard_normal((n, k)), rng.standard_normal((k, m)), bs


@settings(max_examples=25, deadline=None)
@given(random_matrix_pair())
def test_dsarray_matmul_transpose_identity(pair):
    """(A @ B)ᵀ == Bᵀ @ Aᵀ through block operations, any block size."""
    import repro.dsarray as ds

    a_np, b_np, bs = pair
    a = ds.array(a_np, (bs, bs))
    b = ds.array(b_np, (bs, bs))
    left = (a @ b).T.collect()
    right = (b.T @ a.T).collect()
    np.testing.assert_allclose(left, right, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(left, (a_np @ b_np).T, rtol=1e-9, atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(random_dag())
def test_graph_matches_submission(dag):
    n, deps = dag
    with Runtime(executor="sequential") as rt:
        futures: list = []
        for i in range(n):
            inputs = [futures[d] for d in sorted(deps[i])]
            futures.append(_combine(inputs, i))
        wait_on(futures)
        g = rt.graph.snapshot()
    assert g.number_of_nodes() == n
    expected_edges = sum(len(d) for d in deps)
    assert g.number_of_edges() == expected_edges
