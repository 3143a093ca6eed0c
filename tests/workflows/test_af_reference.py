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
from repro.ml.decomposition import pca
from repro.runtime import Runtime
from repro.workflows import prepare_dataset, run_classical, run_study
from repro.workflows.experiments import get_preset

REFS = pathlib.Path(__file__).resolve().parents[2] / "bench" / "refs.json"
SEED = 0
MODELS = ("csvm", "knn", "rf")


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


def bench_inputs():
    """The benchmark's configuration, dataset, per-model overrides and
    frozen outputs (bench/workloads/af_common.preset_config)."""
    refs = json.loads(REFS.read_text(encoding="utf-8"))
    entry = refs["af_classical"]
    sizes = entry["sizes"]
    pipeline = get_preset("small").pipeline
    cfg = dataclasses.replace(
        pipeline,
        seed=SEED,
        scale=sizes["scale"],
        decimate=sizes["decimate"],
        target_length=int(DURATION_RANGE[1] * pipeline.fs),
    )
    overrides = {"rf": {"n_estimators": sizes["rf_trees"]}}
    return refs["env"], cfg, prepare_dataset(cfg), overrides, entry["seeds"][str(SEED)]


def outputs(result) -> dict:
    return {
        "accuracy": result.accuracy,
        "folds": [float(a) for a in result.cv.fold_accuracies],
        "confusions": [m.tolist() for m in result.cv.confusion_matrices],
    }


def classical_loop(cfg, dataset, overrides) -> dict:
    """The benchmark's round: ``run_classical`` once per model."""
    with Runtime(executor="threads", max_workers=2):
        return {
            model: outputs(
                run_classical(
                    model, cfg, dataset=dataset, estimator_overrides=overrides.get(model)
                )
            )
            for model in MODELS
        }


def test_classical_models_match_frozen_reference():
    env, cfg, dataset, overrides, want = bench_inputs()
    if env != numeric_env():
        pytest.skip(f"bench/refs.json was frozen on {env}, this is {numeric_env()}")
    got = classical_loop(cfg, dataset, overrides)
    for model in MODELS:
        assert got[model] == want[model], model


def test_run_study_equals_the_classical_loop():
    """The explicit one-call form gives exactly what the benchmark's
    per-model loop gives, on any numeric stack."""
    _, cfg, dataset, overrides, _ = bench_inputs()
    with Runtime(executor="threads", max_workers=2):
        study = run_study(MODELS, cfg, dataset, overrides)
    assert list(study) == list(MODELS)
    assert {m: outputs(r) for m, r in study.items()} == classical_loop(cfg, dataset, overrides)


def test_covariance_route_gives_the_row_routes_outputs(monkeypatch):
    """The benchmark's matrix has fewer samples than features, so PCA
    factors the centered rows.  Forced through the paper's covariance
    route instead, the three models' outputs are the same: the
    components' canonical signs leave the two routes only rounding
    apart, and no model output sees that.  Unlike the frozen reference,
    this runs on any numeric stack."""
    _, cfg, dataset, overrides, _ = bench_inputs()
    with Runtime(executor="threads", max_workers=2) as rt:
        rows = run_study(MODELS, cfg, dataset, overrides)
        rt.barrier()
        assert "_row_decomposition" in rt.graph.count_by_name()
    monkeypatch.setattr(pca, "_use_rows", lambda n_samples, n_features: False)
    with Runtime(executor="threads", max_workers=2) as rt:
        covariance = run_study(MODELS, cfg, dataset, overrides)
        rt.barrier()
        counts = rt.graph.count_by_name()
    assert counts["_eigendecomposition"] == 1 and "_row_decomposition" not in counts
    assert {m: outputs(r) for m, r in covariance.items()} == {
        m: outputs(r) for m, r in rows.items()
    }
