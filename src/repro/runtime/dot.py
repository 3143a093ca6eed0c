"""DOT export of task graphs, mirroring the PyCOMPSs graph figures.

The paper shows execution graphs (Figs. 4, 6, 8, 9, 10) where each task
type is a coloured circle and edges are data dependencies.  This module
renders a :class:`~repro.runtime.dag.TaskGraph` to Graphviz DOT text
with the same convention (deterministic colour per task name).  A
caller's :class:`networkx.DiGraph` is accepted too, read only through
``nodes(data=True)`` and ``edges(data=True)``.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

from repro.runtime.dag import TaskGraph

if TYPE_CHECKING:
    import networkx as nx

#: Palette loosely matching the paper figures' task colours.
_PALETTE = (
    "#4e79a7",
    "#f28e2b",
    "#e15759",
    "#76b7b2",
    "#59a14f",
    "#edc948",
    "#b07aa1",
    "#ff9da7",
    "#9c755f",
    "#bab0ac",
)


def color_for(name: str) -> str:
    """Deterministic colour for a task name."""
    digest = hashlib.sha1(name.encode()).digest()
    return _PALETTE[digest[0] % len(_PALETTE)]


def to_dot(
    graph: TaskGraph | nx.DiGraph,
    title: str = "workflow",
    group_nested: bool = False,
) -> str:
    """Render the task graph to DOT.

    Nodes are circles coloured by task name; a legend mapping colour to
    task name is included as a comment header so the text artefact is
    self-describing even without rendering.

    Failure management is visible in the rendering: failed attempts get
    a thick dark-red border, ignored failures an orange border,
    cancelled tasks a dashed outline, and runtime resubmissions appear
    as separate nodes linked to the failed attempt by a dashed red
    ``retry`` edge — the graph shows exactly what the scheduler did.
    Tasks replayed from the checkpoint store on resume get a doubled
    green border (state ``"restored"``), so a resumed run's graph shows
    which suffix of the DAG actually executed.

    With ``group_nested=True``, tasks spawned inside a parent task are
    drawn inside a dashed cluster box labelled by the parent — the
    presentation of the paper's Fig. 10, where each fold's training
    tasks are grouped.
    """
    nodes, edges = _as_task_graph(graph)._resolved()
    names = sorted({d.get("name", "?") for d in nodes.values()})
    lines = [f"// execution graph: {title}"]
    for name in names:
        lines.append(f"// legend: {name} = {color_for(name)}")
    lines.append(f'digraph "{title}" {{')
    lines.append("  rankdir=TB;")
    lines.append('  node [shape=circle, style=filled, fontsize=8, label=""];')

    def node_line(node: int, data: dict) -> str:
        name = data.get("name", "?")
        attrs = [f'fillcolor="{color_for(name)}"']
        tooltip = f"{name}#{node}"
        attempt = data.get("attempt")
        if attempt:
            tooltip += f" attempt={attempt}"
        state = data.get("state")
        if state == "failed":
            attrs.append('color="#a00000"')
            attrs.append("penwidth=2.0")
        elif state == "ignored":
            attrs.append('color="#e07b00"')
            attrs.append("penwidth=2.0")
        elif state == "cancelled":
            attrs.append('style="filled,dashed"')
        elif state == "restored":
            attrs.append('color="#2e7d32"')
            attrs.append("penwidth=2.0")
            attrs.append("peripheries=2")
            tooltip += " restored"
        attrs.append(f'tooltip="{tooltip}"')
        return f'  t{node} [{", ".join(attrs)}];'

    if group_nested:
        children: dict[int, list[tuple[int, dict]]] = {}
        top: list[tuple[int, dict]] = []
        for node, data in sorted(nodes.items()):
            parent = data.get("parent")
            if parent is not None and parent in nodes:
                children.setdefault(parent, []).append((node, data))
            else:
                top.append((node, data))
        def emit(node: int, data: dict, indent: str) -> None:
            lines.append(indent + node_line(node, data).strip())
            if node in children:
                name = data.get("name", "?")
                lines.append(f"{indent}subgraph cluster_t{node} {{")
                lines.append(f'{indent}  label="{name}#{node}";')
                lines.append(f"{indent}  style=dashed;")
                for child, cdata in children[node]:
                    emit(child, cdata, indent + "  ")
                lines.append(f"{indent}}}")

        for node, data in top:
            emit(node, data, "  ")
    else:
        for node, data in sorted(nodes.items()):
            lines.append(node_line(node, data))

    for (u, v), edata in sorted(edges.items()):
        if edata.get("kind") == "retry":
            lines.append(
                f'  t{u} -> t{v} [style=dashed, color="#a00000", '
                f'fontsize=7, label="retry"];'
            )
        else:
            lines.append(f"  t{u} -> t{v};")
    lines.append("}")
    return "\n".join(lines)


def save_dot(
    graph: TaskGraph | nx.DiGraph,
    path,
    title: str = "workflow",
    group_nested: bool = False,
) -> None:
    """Render the graph and write the DOT text to *path*, atomically."""
    from repro.runtime.atomic_write import atomic_write

    atomic_write(path, to_dot(graph, title=title, group_nested=group_nested))


def graph_summary(graph: TaskGraph | nx.DiGraph) -> dict:
    """Structural summary used by the graph-reproduction benchmarks:
    task counts per type, dependency count, depth (critical path in
    tasks) and maximum width (peak parallelism)."""
    tg = _as_task_graph(graph)
    return {
        "n_tasks": tg.n_tasks,
        "n_edges": tg.n_edges,
        "depth": tg.depth(),
        "max_width": tg.max_width(),
        "by_name": tg.count_by_name(),
    }


def _as_task_graph(graph: TaskGraph | nx.DiGraph) -> TaskGraph:
    if isinstance(graph, TaskGraph):
        return graph
    return TaskGraph(graph.nodes(data=True), graph.edges(data=True))
