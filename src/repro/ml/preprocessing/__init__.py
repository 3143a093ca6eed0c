"""Distributed preprocessing estimators."""

from repro.ml.preprocessing.scaler import StandardScaler

__all__ = ["StandardScaler"]
