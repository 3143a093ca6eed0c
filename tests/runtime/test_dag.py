"""``TaskGraph`` and the DOT export without networkx: the analyses
against networkx's answers on ``snapshot()`` over seeded random DAGs,
and the DOT text against its networkx rendering and against golden files
of a retry + nested workflow."""

from __future__ import annotations

import pathlib
import random

import networkx as nx
import pytest

from repro.runtime import (
    Runtime,
    current_attempt,
    graph_summary,
    task,
    to_dot,
    wait_on,
)
from repro.runtime.dag import TaskGraph

GOLDEN = pathlib.Path(__file__).parent / "golden"

NAMES = ("load", "fit", "merge", "score")
STATES = (None, "done", "failed", "ignored", "cancelled", "restored")


# -- the golden workflow: retries, an ignored failure, two nesting levels --
@task(returns=1, max_retries=2)
def flaky(x):
    if current_attempt() < 2:
        raise OSError("transient")
    return x


@task(returns=1)
def leaf(x):
    return x + 1


@task(returns=1, on_failure="IGNORE", failure_default=0)
def broken(x):
    raise ValueError("ignored")


@task(returns=1)
def fold(x):
    return wait_on(leaf(x)) + wait_on(flaky(x))


@task(returns=1)
def outer(x):
    return wait_on(fold(x)) + wait_on(broken(x))


@task(returns=1)
def combine(*xs):
    return sum(xs)


def retry_nested_graph() -> TaskGraph:
    with Runtime(executor="sequential") as rt:
        a = flaky(1)
        total = combine(fold(a), outer(2), broken(3))
        assert wait_on(total) == (2 + 1) + (3 + 2 + 0) + 0
        return rt.graph


@pytest.fixture(scope="module")
def workflow_graph() -> TaskGraph:
    return retry_nested_graph()


@pytest.mark.parametrize("group_nested", [False, True])
def test_dot_matches_the_golden_rendering(workflow_graph, group_nested):
    name = "retry_nested_grouped.dot" if group_nested else "retry_nested.dot"
    golden = (GOLDEN / name).read_text()
    for graph in (workflow_graph, workflow_graph.snapshot()):
        assert to_dot(graph, title="retry_nested", group_nested=group_nested) == golden


# -- random graphs against networkx ---------------------------------------
def random_graph(seed: int) -> TaskGraph:
    """A DAG over shuffled ids, some of them only edge endpoints, with
    repeated edges and retry triples (a repeat may carry the triple)."""
    rng = random.Random(seed)
    n = rng.randint(1, 30)
    order = rng.sample(range(100), n)  # topological order of every id
    known = [i for i in order if rng.random() < 0.85]
    nodes = []
    for task_id in rng.sample(known, len(known)):
        attrs = {}
        if rng.random() < 0.9:
            attrs["name"] = rng.choice(NAMES)
        state = rng.choice(STATES)
        if state is not None:
            attrs["state"] = state
        if rng.random() < 0.4:
            attrs["parent"] = rng.choice(order)
        if rng.random() < 0.2:
            attrs["attempt"] = rng.randint(1, 3)
        nodes.append((task_id, attrs))
    edges = []
    for _ in range(rng.randint(0, 2 * n)):
        i, j = sorted(rng.sample(range(n), 2)) if n > 1 else (0, 0)
        if i == j:
            continue
        u, v = order[i], order[j]
        edges.append((u, v, {"kind": "retry"}) if rng.random() < 0.15 else (u, v))
        if rng.random() < 0.2:
            edges.append((u, v, {"kind": "retry"}) if rng.random() < 0.5 else (u, v))
    return TaskGraph(nodes, edges)


def networkx_answers(g: TaskGraph) -> dict:
    snap = g.snapshot()
    levels = [sorted(gen) for gen in nx.topological_generations(snap)]
    return {
        "levels": levels,
        "depth": nx.dag_longest_path_length(snap) + 1 if snap.number_of_nodes() else 0,
        "max_width": max((len(level) for level in levels), default=0),
        "task_names": {n: d.get("name", "?") for n, d in snap.nodes(data=True)},
    }


def answers(g: TaskGraph) -> dict:
    return {
        "levels": g.levels(),
        "depth": g.depth(),
        "max_width": g.max_width(),
        "task_names": g.task_names(),
    }


GRAPHS = [TaskGraph()] + [random_graph(seed) for seed in range(60)]


@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"{g.n_tasks}n{g.n_edges}e")
def test_analyses_equal_networkx(g):
    expected = networkx_answers(g)
    assert answers(g) == expected
    counts: dict[str, int] = {}
    for name in expected["task_names"].values():
        counts[name] = counts.get(name, 0) + 1
    assert g.count_by_name() == counts
    # a TaskGraph's own counts are its node dict and edge list as given
    assert graph_summary(g) == graph_summary(g.snapshot()) | {
        "n_tasks": g.n_tasks,
        "n_edges": g.n_edges,
    }


@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"{g.n_tasks}n{g.n_edges}e")
@pytest.mark.parametrize("group_nested", [False, True])
def test_dot_is_the_same_for_a_graph_and_its_snapshot(g, group_nested):
    assert to_dot(g, group_nested=group_nested) == to_dot(g.snapshot(), group_nested=group_nested)


def test_the_generator_covers_every_shape():
    shapes = {"dangling": 0, "repeated": 0, "retry": 0, "empty": 0}
    for g in GRAPHS:
        nodes, edges = dict(g._nodes), g._edges
        shapes["empty"] += not nodes and not edges
        shapes["dangling"] += any(e[0] not in nodes or e[1] not in nodes for e in edges)
        shapes["repeated"] += len({e[:2] for e in edges}) < len(edges)
        shapes["retry"] += any(len(e) == 3 for e in edges)
    assert all(shapes.values()), shapes


def test_workflow_analyses_equal_networkx(workflow_graph):
    assert answers(workflow_graph) == networkx_answers(workflow_graph)


def test_a_cycle_is_an_error():
    with pytest.raises(ValueError, match="cycle"):
        TaskGraph([(0, {}), (1, {})], [(0, 1), (1, 0)]).levels()
