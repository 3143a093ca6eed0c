"""Cross-subsystem integration: one run exercising every layer.

ecg → preprocessing → dsarray → PCA → classifier → metrics, recorded by
the runtime, exported as its OTLP record + DOT, and replayed on a simulated
cluster — the complete loop a downstream user of this library runs.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.dsarray as ds
from repro.cluster import bottleneck_report, core_sweep, marenostrum4, simulate
from repro.ecg import ECGConfig
from repro.ml import PCA, RandomForestClassifier, StandardScaler, cross_validate
from repro.runtime import Runtime, graph_summary, to_dot, wait_on
from repro.runtime.otlp import iter_spans, span_attributes, trace_to_otlp
from repro.workflows import PipelineConfig, extract_features, prepare_dataset

CFG = PipelineConfig(
    scale=0.006,
    seed=1,
    block_size=(16, 64),
    n_splits=3,
    decimate=8,
    stft_batch=8,
    ecg=ECGConfig(noise_std=0.1),
)


@pytest.fixture(scope="module")
def full_run():
    """Execute the whole workflow once under a recording runtime."""
    dataset = prepare_dataset(CFG)
    with Runtime(executor="threads", max_workers=4) as rt:
        feats, labels = extract_features(dataset, CFG)
        dx = ds.array(feats, CFG.block_size)
        dy = ds.array(labels.reshape(-1, 1), (CFG.block_size[0], 1))
        pca = PCA(n_components=0.95)
        reduced = pca.fit_transform(dx, block_size=CFG.block_size)
        scaled = StandardScaler().fit_transform(reduced)
        cv = cross_validate(
            lambda: RandomForestClassifier(n_estimators=8, random_state=0),
            scaled,
            dy,
            n_splits=CFG.n_splits,
        )
        rt.barrier()
        trace = rt.trace()
        graph = rt.graph
        prov = trace_to_otlp(trace, resource={"repro.workflow": "af-integration"})
        dot = to_dot(graph, title="af-integration")
    return {
        "dataset": dataset,
        "cv": cv,
        "trace": trace,
        "graph": graph,
        "prov": prov,
        "dot": dot,
        "pca": pca,
    }


def test_workflow_learns(full_run):
    assert full_run["cv"].mean_accuracy > 0.7


def test_pca_reduced_dimensionality(full_run):
    pca = full_run["pca"]
    assert pca.n_components_ < pca.n_features_in_
    assert pca.explained_variance_ratio_.sum() >= 0.95 - 1e-9


def test_every_stage_present_in_graph(full_run):
    names = set(full_run["graph"].count_by_name())
    for expected in (
        "stft_batch",
        "slice_block",
        "_partial_sum",
        "_row_decomposition",
        "_partial_stats",
        "_scale_block",
        "_gather",
        "_bootstrap",
        "_build_subtree",
        "_predict_stripe_proba",
    ):
        assert expected in names, f"missing stage {expected}"


def test_trace_consistent_with_graph(full_run):
    assert len(full_run["trace"]) == full_run["graph"].n_tasks
    summary = graph_summary(full_run["graph"])
    assert summary["n_tasks"] > 100
    assert summary["max_width"] > 4


def test_provenance_serialisable(full_run):
    blob = json.loads(json.dumps(full_run["prov"]))
    resource = span_attributes(blob["resourceSpans"][0]["resource"])
    assert resource["repro.workflow"] == "af-integration"
    assert full_run["cv"].mean_accuracy > 0
    assert sum(1 for _ in iter_spans(blob)) == full_run["graph"].n_tasks


def test_dot_export_contains_all_tasks(full_run):
    assert full_run["dot"].count("fillcolor=") == full_run["graph"].n_tasks


def test_trace_replays_on_simulated_cluster(full_run):
    trace = full_run["trace"]
    res = simulate(trace, marenostrum4(2))
    assert len(res.placements) == len(trace)
    assert res.makespan > 0
    report = bottleneck_report(trace, res)
    assert "critical path" in report


def test_trace_core_sweep_sane(full_run):
    from repro.cluster import NodeSpec

    points = core_sweep(full_run["trace"], NodeSpec(cores=48), [1, 4])
    assert points[1].makespan <= points[0].makespan * 1.01
