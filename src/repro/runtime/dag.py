"""Dependency graph built at submission time.

Mirrors the PyCOMPSs execution graph (paper Figs. 4, 6, 8, 9, 10):
nodes are task instances, edges are data dependencies.  The task path
writes a plain ``{task_id: attrs}`` dict and an edge list; the reader's
:meth:`TaskGraph.snapshot` builds the :class:`networkx.DiGraph` that
makes the analyses (critical path, width, levels) one-liners.
"""

from __future__ import annotations

import threading
from typing import Iterable

import networkx as nx


class TaskGraph:
    """Thread-safe append-only task dependency graph."""

    def __init__(self) -> None:
        self._nodes: dict[int, dict] = {}
        self._edges: list[tuple] = []  # (dep, task_id) or (prev, retry, attrs)
        self._lock = threading.Lock()

    def add_task(self, task_id: int, name: str, deps: Iterable[int], **attrs) -> None:
        with self._lock:
            self._nodes[task_id] = {"name": name, **attrs}
            self._edges.extend([(dep, task_id) for dep in deps])

    def add_tasks(
        self,
        nodes: Iterable[tuple[int, dict]],
        edges: Iterable[tuple],
    ) -> None:
        """Insert a whole submission batch under one lock acquisition:
        *nodes* as ``(task_id, attrs)`` pairs (attrs must include
        ``name``), *edges* as ``(dep, task_id)`` pairs."""
        with self._lock:
            self._nodes.update(nodes)
            self._edges.extend(edges)

    def add_retry(self, prev_id: int, new_id: int, name: str, attempt: int, **attrs) -> None:
        """Add a resubmission attempt node, chained to the failed
        attempt by a ``kind="retry"`` edge (rendered dashed in DOT)."""
        with self._lock:
            self._nodes[new_id] = dict(name=name, attempt=attempt, retry_of=prev_id, **attrs)
            self._edges.append((prev_id, new_id, {"kind": "retry"}))

    def set_attr(self, task_id: int, **attrs) -> None:
        with self._lock:
            self._nodes[task_id].update(attrs)

    # -- analyses ---------------------------------------------------------
    def snapshot(self) -> nx.DiGraph:
        """A copy safe to analyse while tasks keep being submitted."""
        g = nx.DiGraph()
        with self._lock:  # networkx copies the attribute dicts
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
