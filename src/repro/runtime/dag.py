"""The task dependency graph, as a value.

Mirrors the PyCOMPSs execution graph (paper Figs. 4, 6, 8, 9, 10):
nodes are task instances, edges are data dependencies.  The engine
keeps no graph of its own — ``Runtime.graph`` builds a
:class:`TaskGraph` from a snapshot of its task table on every access —
so a ``TaskGraph`` is a plain ``{task_id: attrs}`` dict plus an edge
list that nothing writes after construction.  The analyses (levels,
depth, width) are one pass over that list; networkx is imported only
by :meth:`TaskGraph.snapshot`, for callers who want a
:class:`networkx.DiGraph`, so neither the runtime nor its worker
processes load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    import networkx as nx


class TaskGraph:
    """An immutable task dependency graph: *nodes* as ``(task_id,
    attrs)`` pairs (attrs include ``name``), *edges* as ``(dep,
    task_id)`` pairs or ``(prev, retry, {"kind": "retry"})`` triples
    (rendered dashed in DOT)."""

    def __init__(
        self,
        nodes: Iterable[tuple[int, dict]] = (),
        edges: Iterable[tuple] = (),
    ) -> None:
        self._nodes: dict[int, dict] = dict(nodes)
        self._edges: list[tuple] = list(edges)

    def snapshot(self) -> nx.DiGraph:
        """The graph as a fresh :class:`networkx.DiGraph` (networkx
        copies the attribute dicts, so the caller may edit it)."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(self._nodes.items())
        g.add_edges_from(self._edges)
        return g

    def _resolved(self) -> tuple[dict[int, dict], dict[tuple[int, int], dict]]:
        """The graph as a directed graph holds it: every node with its
        attributes (an edge endpoint missing from the nodes counts as a
        node without any), and every distinct edge ``(u, v)`` once with
        the attributes of all its copies merged in order."""
        nodes = dict(self._nodes)
        edges: dict[tuple[int, int], dict] = {}
        for edge in self._edges:
            u, v = edge[0], edge[1]
            nodes.setdefault(u, {})
            nodes.setdefault(v, {})
            attrs = edges.setdefault((u, v), {})
            if len(edge) > 2:
                attrs.update(edge[2])
        return nodes, edges

    # -- analyses ---------------------------------------------------------
    @property
    def n_tasks(self) -> int:
        return len(self._nodes)

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def levels(self) -> list[list[int]]:
        """Topological generations: tasks in the same level have no
        dependencies between them and can run concurrently (the
        "horizontal lines" of the paper's graph figures).  Kahn's
        algorithm a generation at a time, so a task's level is the
        longest chain of dependencies leading to it."""
        nodes, edges = self._resolved()
        successors: dict[int, list[int]] = {n: [] for n in nodes}
        indegree = dict.fromkeys(nodes, 0)
        for u, v in edges:
            successors[u].append(v)
            indegree[v] += 1
        generation = [n for n, d in indegree.items() if d == 0]
        levels = []
        while generation:
            levels.append(sorted(generation))
            released = []
            for u in generation:
                for v in successors[u]:
                    indegree[v] -= 1
                    if indegree[v] == 0:
                        released.append(v)
            generation = released
        if sum(map(len, levels)) != len(nodes):
            raise ValueError("the task graph has a cycle")
        return levels

    def depth(self) -> int:
        """Length of the longest dependency chain (critical path in
        tasks): the number of generations."""
        return len(self.levels())

    def max_width(self) -> int:
        """Maximum number of concurrently-runnable tasks."""
        return max(map(len, self.levels()), default=0)

    def task_names(self) -> dict[int, str]:
        nodes, _ = self._resolved()
        return {n: d.get("name", "?") for n, d in nodes.items()}

    def count_by_name(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for name in self.task_names().values():
            counts[name] = counts.get(name, 0) + 1
        return counts
