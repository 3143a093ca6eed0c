"""Minimal deep-learning library + distributed trainers (EDDL analog)."""

from repro.nn.distributed import (
    DistributedTrainer,
    TrainerParams,
    cnn_cross_validation,
)
from repro.nn.layers import (
    Conv1D,
    Dense,
    Flatten,
    Layer,
    MaxPool1D,
    ReLU,
    layer_from_config,
)
from repro.nn.losses import SoftmaxCrossEntropy, softmax
from repro.nn.model import Sequential, af_cnn
from repro.nn.optim import SGD, Adam, Optimizer

__all__ = [
    "Sequential",
    "af_cnn",
    "Conv1D",
    "Dense",
    "Flatten",
    "MaxPool1D",
    "ReLU",
    "Layer",
    "layer_from_config",
    "SoftmaxCrossEntropy",
    "softmax",
    "SGD",
    "Adam",
    "Optimizer",
    "DistributedTrainer",
    "TrainerParams",
    "cnn_cross_validation",
]
