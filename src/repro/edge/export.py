"""Model export for edge deployment.

The paper's Fig. 1 pipeline trains in the HPC/cloud and deploys the AF
detector "at the edge or close to where the data is generated (e.g.
smartwatches)".  A deployed model must be self-contained and cheap to
ship: we export any :class:`repro.nn.Sequential` (or fitted classical
estimator exposing ``predict``) to a plain dict of config + weights.
"""

from __future__ import annotations

import numpy as np

from repro.nn.model import Sequential


def export_model(model: Sequential) -> dict:
    """Self-contained, dependency-light model bundle."""
    return {
        "format": "repro-edge-v1",
        "config": model.config(),
        "weights": model.get_weights(),
    }


def import_model(bundle: dict) -> Sequential:
    if bundle.get("format") != "repro-edge-v1":
        raise ValueError(f"unknown bundle format {bundle.get('format')!r}")
    model = Sequential.from_config(bundle["config"])
    model.set_weights([np.asarray(w) for w in bundle["weights"]])
    return model


def bundle_nbytes(bundle: dict) -> int:
    """Size of the weight payload — what actually crosses the network
    to the device."""
    return int(sum(np.asarray(w).nbytes for w in bundle["weights"]))
