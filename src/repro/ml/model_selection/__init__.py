"""Model selection: K-fold splitting and cross-validated evaluation."""

from repro.ml.model_selection.cross_val import CVResult, cross_validate
from repro.ml.model_selection.kfold import KFold

__all__ = [
    "KFold",
    "cross_validate",
    "CVResult",
]
