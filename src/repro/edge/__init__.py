"""Edge inference — the deployment half of the paper's Fig. 1 pipeline
(train in the HPC/cloud, detect AF on the wearable)."""

from repro.edge.device import (
    DeviceSpec,
    EdgeDevice,
    StreamReport,
    WindowResult,
    bandwidth_savings,
)
from repro.edge.export import (
    bundle_nbytes,
    export_model,
    import_model,
)

__all__ = [
    "export_model",
    "import_model",
    "bundle_nbytes",
    "DeviceSpec",
    "EdgeDevice",
    "StreamReport",
    "WindowResult",
    "bandwidth_savings",
]
