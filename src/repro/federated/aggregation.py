"""Server-side aggregation strategies."""

from __future__ import annotations

import numpy as np


def fedavg(weight_sets: list[list[np.ndarray]], n_samples: list[int]) -> list[np.ndarray]:
    """FedAvg (McMahan et al., 2017): sample-count-weighted average of
    the clients' model weights."""
    if not weight_sets:
        raise ValueError("no client updates to aggregate")
    if len(weight_sets) != len(n_samples):
        raise ValueError("one sample count per client update required")
    total = float(sum(n_samples))
    if total <= 0:
        raise ValueError("total sample count must be positive")
    coef = [n / total for n in n_samples]
    return [
        sum(c * w[i] for c, w in zip(coef, weight_sets))
        for i in range(len(weight_sets[0]))
    ]


def fedavg_with_momentum(
    weight_sets: list[list[np.ndarray]],
    n_samples: list[int],
    global_weights: list[np.ndarray],
    velocity: list[np.ndarray] | None,
    beta: float = 0.9,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Server momentum (FedAvgM): treat the aggregated delta as a
    pseudo-gradient and apply momentum on the server."""
    avg = fedavg(weight_sets, n_samples)
    delta = [a - g for a, g in zip(avg, global_weights)]
    if velocity is None:
        velocity = [np.zeros_like(d) for d in delta]
    velocity = [beta * v + d for v, d in zip(velocity, delta)]
    new_weights = [g + v for g, v in zip(global_weights, velocity)]
    return new_weights, velocity


STRATEGIES = {
    "fedavg": fedavg,
}
