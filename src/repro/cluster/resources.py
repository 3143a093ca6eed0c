"""Cluster resource descriptions.

Models the paper's two testbeds:

* **MareNostrum IV** general-purpose partition — nodes with two 24-core
  Intel Xeon Platinum 8160 (48 cores) and 96 GB of memory.
* **CTE-Power** — nodes with two IBM Power9 CPUs, 512 GB of memory and
  4 NVIDIA V100 GPUs.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class NodeSpec:
    """One compute node."""

    cores: int
    gpus: int = 0
    name: str = "node"
    #: Relative CPU speed (1.0 = the machine the trace was recorded on).
    speed: float = 1.0

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("a node needs at least one core")
        if self.gpus < 0:
            raise ValueError("gpus must be >= 0")
        if self.speed <= 0:
            raise ValueError("speed must be positive")


@dataclasses.dataclass(frozen=True)
class ClusterSpec:
    """A cluster of *n_nodes* copies of *node*.

    ``bandwidth`` (bytes/s) and ``latency`` (s) describe the
    interconnect and drive the data-transfer penalty applied when a
    task consumes data produced on a different node.

    ``node_speeds`` optionally makes the fleet heterogeneous: one
    relative speed per node (overriding ``node.speed``), e.g. a
    federated fleet with straggler devices.
    """

    node: NodeSpec
    n_nodes: int
    bandwidth: float = 12.5e9  # ~100 Gb/s Omni-Path, as on MareNostrum IV
    latency: float = 1.5e-6
    node_speeds: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("need at least one node")
        if self.bandwidth <= 0 or self.latency < 0:
            raise ValueError("bad interconnect parameters")
        if self.node_speeds is not None:
            if len(self.node_speeds) != self.n_nodes:
                raise ValueError("node_speeds must have one entry per node")
            if any(s <= 0 for s in self.node_speeds):
                raise ValueError("node speeds must be positive")

    def speed_of(self, node: int) -> float:
        if self.node_speeds is not None:
            return self.node_speeds[node]
        return self.node.speed

    @property
    def total_cores(self) -> int:
        return self.node.cores * self.n_nodes

    def transfer_time(self, nbytes: int) -> float:
        """Time to move *nbytes* between two nodes."""
        return self.latency + nbytes / self.bandwidth


def marenostrum4(n_nodes: int) -> ClusterSpec:
    """The paper's MareNostrum IV general-purpose nodes (48 cores)."""
    return ClusterSpec(node=NodeSpec(cores=48, name="mn4"), n_nodes=n_nodes)


def cte_power(n_nodes: int) -> ClusterSpec:
    """The paper's CTE-Power GPU nodes (40 cores, 4 V100 GPUs)."""
    return ClusterSpec(
        node=NodeSpec(cores=40, gpus=4, name="power9"),
        n_nodes=n_nodes,
        bandwidth=12.5e9,
    )
