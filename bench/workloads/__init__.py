"""The seven workloads.  A workload subprocess imports only its own
module, so no workload pays for another's imports."""

import importlib

_CLASSES = {
    "af_classical": "AFClassical",
    "af_cnn": "AFCnn",
    "blocks_procs": "BlocksProcs",
    "task_flood": "TaskFlood",
    "task_dag": "TaskDag",
    "stream_serve": "StreamServe",
    "service_jobs": "ServiceJobs",
}


NAMES = tuple(_CLASSES)


def load(name: str):
    """The workload class called *name*."""
    return getattr(importlib.import_module(f"workloads.{name}"), _CLASSES[name])
