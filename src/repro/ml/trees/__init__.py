"""Decision trees and the distributed random forest."""

from repro.ml.trees.forest import RandomForestClassifier

__all__ = ["RandomForestClassifier"]
