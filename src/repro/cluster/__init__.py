"""Discrete-event cluster simulator — the testbed substitute.

Replays recorded task traces on parameterised clusters (MareNostrum IV
48-core nodes, CTE-Power 4-GPU nodes) to regenerate the paper's
scalability results without the hardware (:func:`gantt_text` draws a
simulated schedule).  A recorded runtime trace renders as a
chrome://tracing timeline through its OTLP document,
``repro.runtime.otlp.otlp_to_chrome(trace_to_otlp(trace))``.
"""

from repro.cluster.analysis import (
    bottleneck_report,
    critical_path,
    failure_report,
    gantt_text,
)
from repro.cluster.costmodel import CostModel, IDENTITY, name_mean_smoother
from repro.cluster.replay import (
    SweepPoint,
    compare_strategies,
    core_sweep,
    format_sweep,
    impose_barrier_order,
    speedups,
)
from repro.cluster.resources import (
    ClusterSpec,
    NodeSpec,
    cte_power,
    marenostrum4,
)
from repro.cluster.simulator import (
    CheckpointSpec,
    CheckpointWrite,
    DeadClusterError,
    NodeFailure,
    OversubscribedTaskError,
    Placement,
    SimResult,
    flatten_nested,
    simulate,
)

__all__ = [
    "CostModel",
    "IDENTITY",
    "ClusterSpec",
    "NodeSpec",
    "marenostrum4",
    "cte_power",
    "simulate",
    "SimResult",
    "Placement",
    "OversubscribedTaskError",
    "NodeFailure",
    "DeadClusterError",
    "CheckpointSpec",
    "CheckpointWrite",
    "failure_report",
    "flatten_nested",
    "core_sweep",
    "speedups",
    "format_sweep",
    "compare_strategies",
    "impose_barrier_order",
    "SweepPoint",
    "name_mean_smoother",
    "critical_path",
    "gantt_text",
    "bottleneck_report",
]
