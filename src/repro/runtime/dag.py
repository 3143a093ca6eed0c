"""The task dependency graph, as a value.

Mirrors the PyCOMPSs execution graph (paper Figs. 4, 6, 8, 9, 10):
nodes are task instances, edges are data dependencies.  The engine
keeps no graph of its own — ``Runtime.graph`` builds a
:class:`TaskGraph` from a snapshot of its task table on every access —
so a ``TaskGraph`` is a plain ``{task_id: attrs}`` dict plus an edge
list that nothing writes after construction, and
:meth:`TaskGraph.snapshot` builds the :class:`networkx.DiGraph` that
makes the analyses (critical path, width, levels) one-liners.
"""

from __future__ import annotations

from typing import Iterable

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

    # -- analyses ---------------------------------------------------------
    def snapshot(self) -> nx.DiGraph:
        """The graph as a fresh :class:`networkx.DiGraph` (networkx
        copies the attribute dicts, so the caller may edit it)."""
        g = nx.DiGraph()
        g.add_nodes_from(self._nodes.items())
        g.add_edges_from(self._edges)
        return g

    @property
    def n_tasks(self) -> int:
        return len(self._nodes)

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def levels(self) -> list[list[int]]:
        """Topological generations: tasks in the same level have no
        dependencies between them and can run concurrently (the
        "horizontal lines" of the paper's graph figures)."""
        g = self.snapshot()
        return [sorted(gen) for gen in nx.topological_generations(g)]

    def depth(self) -> int:
        """Length of the longest dependency chain (critical path in tasks)."""
        g = self.snapshot()
        if g.number_of_nodes() == 0:
            return 0
        return nx.dag_longest_path_length(g) + 1

    def max_width(self) -> int:
        """Maximum number of concurrently-runnable tasks."""
        levels = self.levels()
        return max((len(level) for level in levels), default=0)

    def task_names(self) -> dict[int, str]:
        g = self.snapshot()
        return {n: d.get("name", "?") for n, d in g.nodes(data=True)}

    def count_by_name(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for name in self.task_names().values():
            counts[name] = counts.get(name, 0) + 1
        return counts
