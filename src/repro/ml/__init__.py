"""Distributed machine learning — the dislib analog.

Estimators follow the scikit-learn fit/predict convention and consume
:class:`repro.dsarray.Array` inputs; all parallelism is expressed as
runtime tasks over row blocks.

Each estimator is imported on first access (:func:`__getattr__`): a
worker process that runs a KMeans task loads the clustering module, not
the SVMs and trees.
"""

import importlib

from repro.ml.base import BaseEstimator, NotFittedError

#: Public names by the subpackage that defines them.
_LAZY_MODULES = {
    "clustering": ("KMeans",),
    "decomposition": ("PCA",),
    "linear": ("LogisticRegression",),
    "model_selection": ("CVResult", "GridSearchCV", "KFold", "cross_validate"),
    "neighbors": ("KNeighborsClassifier", "NearestNeighbors"),
    "preprocessing": ("MinMaxScaler", "StandardScaler"),
    "svm": ("SVC", "CascadeSVM", "OneVsRestClassifier"),
    "trees": ("DecisionTreeClassifier", "RandomForestClassifier"),
}
_LAZY = {name: module for module, names in _LAZY_MODULES.items() for name in names}

__all__ = [
    "BaseEstimator",
    "NotFittedError",
    "PCA",
    "KMeans",
    "LogisticRegression",
    "KFold",
    "cross_validate",
    "CVResult",
    "GridSearchCV",
    "NearestNeighbors",
    "KNeighborsClassifier",
    "StandardScaler",
    "MinMaxScaler",
    "SVC",
    "CascadeSVM",
    "OneVsRestClassifier",
    "DecisionTreeClassifier",
    "RandomForestClassifier",
]


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
