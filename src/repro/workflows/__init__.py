"""End-to-end AF workflows tying the substrates together."""

from repro.workflows.af_pipeline import (
    ClassicalResult,
    PipelineConfig,
    StudyFeatures,
    extract_features,
    prepare_dataset,
    reduce_dimensions,
    run_classical,
    run_cnn,
    run_study,
)
from repro.workflows.reporting import side_by_side, table1_block

__all__ = [
    "PipelineConfig",
    "ClassicalResult",
    "StudyFeatures",
    "prepare_dataset",
    "extract_features",
    "reduce_dimensions",
    "run_study",
    "run_classical",
    "run_cnn",
    "table1_block",
    "side_by_side",
]
