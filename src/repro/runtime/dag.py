"""Dependency graph built at submission time.

Mirrors the PyCOMPSs execution graph (paper Figs. 4, 6, 8, 9, 10):
nodes are task instances, edges are data dependencies.  Backed by a
:class:`networkx.DiGraph` so analyses (critical path, width, levels)
are one-liners, but wrapped so mutation stays thread-safe.
"""

from __future__ import annotations

import threading
from typing import Iterable

import networkx as nx


class TaskGraph:
    """Thread-safe append-only task dependency graph."""

    def __init__(self) -> None:
        self._graph = nx.DiGraph()
        self._lock = threading.Lock()

    def add_task(self, task_id: int, name: str, deps: Iterable[int], **attrs) -> None:
        with self._lock:
            self._graph.add_node(task_id, name=name, **attrs)
            for dep in deps:
                self._graph.add_edge(dep, task_id)

    def add_tasks(
        self,
        nodes: Iterable[tuple[int, dict]],
        edges: Iterable[tuple[int, int]],
    ) -> None:
        """Insert a whole submission batch under one lock acquisition:
        *nodes* as ``(task_id, attrs)`` pairs (attrs must include
        ``name``), *edges* as ``(dep, task_id)`` pairs."""
        with self._lock:
            self._graph.add_nodes_from(nodes)
            self._graph.add_edges_from(edges)

    def add_retry(self, prev_id: int, new_id: int, name: str, attempt: int, **attrs) -> None:
        """Add a resubmission attempt node, chained to the failed
        attempt by a ``kind="retry"`` edge (rendered dashed in DOT)."""
        with self._lock:
            self._graph.add_node(new_id, name=name, attempt=attempt, retry_of=prev_id, **attrs)
            self._graph.add_edge(prev_id, new_id, kind="retry")

    def set_attr(self, task_id: int, **attrs) -> None:
        with self._lock:
            self._graph.nodes[task_id].update(attrs)

    # -- analyses ---------------------------------------------------------
    def snapshot(self) -> nx.DiGraph:
        """A copy safe to analyse while tasks keep being submitted."""
        with self._lock:
            return self._graph.copy()

    @property
    def n_tasks(self) -> int:
        with self._lock:
            return self._graph.number_of_nodes()

    @property
    def n_edges(self) -> int:
        with self._lock:
            return self._graph.number_of_edges()

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
