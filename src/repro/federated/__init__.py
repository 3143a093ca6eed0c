"""Federated learning over the task runtime — the paper's future-work
extension (§V): devices with private local data train local models
whose weights are combined into a general model."""

from repro.federated.aggregation import (
    fedavg,
    fedavg_with_momentum,
)
from repro.federated.federation import (
    ClientData,
    FederatedConfig,
    FederatedRoundError,
    Federation,
    RoundMetrics,
)
from repro.federated.partition import (
    dirichlet_partition,
    iid_partition,
    partition_stats,
)

__all__ = [
    "Federation",
    "FederatedConfig",
    "ClientData",
    "RoundMetrics",
    "FederatedRoundError",
    "fedavg",
    "fedavg_with_momentum",
    "iid_partition",
    "dirichlet_partition",
    "partition_stats",
]
