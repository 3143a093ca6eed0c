"""The benchmark's ``af_classical`` oracle in tier-1: the three
classical models on the benchmark's own configuration reproduce the
outputs frozen in ``bench/refs.json`` exactly, so a kernel change that
moves a model's bits fails here before it reaches the benchmark.

``bench/`` is only read.  The frozen values hold for one numeric stack
(the interpreter, numpy, scipy, the machine and the CPU model are part
of them), so anywhere else the test skips, as the benchmark falls back
to a recomputed reference there.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import platform

import numpy
import pytest
import scipy

from repro.ecg.dataset import DURATION_RANGE
from repro.runtime import Runtime
from repro.workflows import prepare_dataset, run_classical
from repro.workflows.experiments import get_preset

REFS = pathlib.Path(__file__).resolve().parents[2] / "bench" / "refs.json"
SEED = 0


def numeric_env() -> dict:
    """What ``bench/harness.environment`` stamps as the numeric stack."""
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "cpu": cpu,
    }


def test_classical_models_match_frozen_reference():
    refs = json.loads(REFS.read_text(encoding="utf-8"))
    if refs["env"] != numeric_env():
        pytest.skip(f"bench/refs.json was frozen on {refs['env']}, this is {numeric_env()}")
    entry = refs["af_classical"]
    sizes, want = entry["sizes"], entry["seeds"][str(SEED)]
    # bench/workloads/af_common.preset_config
    pipeline = get_preset("small").pipeline
    cfg = dataclasses.replace(
        pipeline,
        seed=SEED,
        scale=sizes["scale"],
        decimate=sizes["decimate"],
        target_length=int(DURATION_RANGE[1] * pipeline.fs),
    )
    dataset = prepare_dataset(cfg)
    overrides = {"rf": {"n_estimators": sizes["rf_trees"]}}
    with Runtime(executor="threads", max_workers=2):
        for model in ("csvm", "knn", "rf"):
            result = run_classical(
                model, cfg, dataset=dataset, estimator_overrides=overrides.get(model)
            )
            got = {
                "accuracy": result.accuracy,
                "folds": [float(a) for a in result.cv.fold_accuracies],
                "confusions": [m.tolist() for m in result.cv.confusion_matrices],
            }
            assert got == want[model], model
