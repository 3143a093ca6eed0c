"""Graceful degradation of federated rounds under client failures."""

from __future__ import annotations

import numpy as np
import pytest

from repro.federated import (
    ClientData,
    FederatedConfig,
    FederatedRoundError,
    Federation,
)
from repro.nn.layers import Dense, ReLU
from repro.nn.model import Sequential
from repro.runtime import Runtime


def make_config(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential([Dense(4, 8, rng), ReLU(), Dense(8, 2, rng)]).config()


def make_clients(n=4, seed=0, failing=()):
    """*n* shards; those indexed in *failing* carry 5 features for the
    model's 4 inputs, so their ``client_update`` task fails."""
    rng = np.random.default_rng(seed)
    return [
        ClientData(
            x=rng.standard_normal((24, 5 if i in failing else 4)),
            y=(rng.standard_normal(24) > 0).astype(int),
        )
        for i in range(n)
    ]


def test_quorum_validation():
    with pytest.raises(ValueError):
        FederatedConfig(quorum=0.0)
    with pytest.raises(ValueError):
        FederatedConfig(quorum=1.5)


def test_round_proceeds_with_quorum_of_survivors():
    fed = Federation(
        make_config(), make_clients(failing={1}), FederatedConfig(rounds=1, quorum=0.5, seed=1)
    )
    before = [w.copy() for w in fed.global_weights]
    with Runtime(executor="threads"):
        metrics = fed.run_round()
    assert metrics.dropped_clients == [1]
    # the round still updated the global model from the survivors
    assert any(not np.allclose(a, b) for a, b in zip(before, fed.global_weights))


def test_dropped_clients_logged_to_provenance():
    fed = Federation(
        make_config(), make_clients(failing={1}), FederatedConfig(rounds=1, quorum=0.5, seed=1)
    )
    with Runtime(executor="threads"):
        fed.run_round()
    (entry,) = fed.provenance_log
    assert entry["round"] == 0
    assert len(entry["dropped_clients"]) == 1
    assert len(entry["survivors"]) == 3
    assert entry["dropped_clients"][0] not in entry["survivors"]
    assert entry["errors"]  # the cause is recorded


def test_below_quorum_raises_round_error():
    fed = Federation(
        make_config(), make_clients(failing={0, 2}), FederatedConfig(rounds=1, quorum=0.9, seed=1)
    )
    with Runtime(executor="threads"):
        with pytest.raises(FederatedRoundError, match="quorum"):
            fed.run_round()


def test_strict_quorum_keeps_legacy_failure_behaviour():
    """At quorum=1.0 (default) a client failure fails the round."""
    from repro.runtime.exceptions import CancelledTaskError, TaskExecutionError

    fed = Federation(
        make_config(), make_clients(failing={0}), FederatedConfig(rounds=1, seed=1)
    )
    with Runtime(executor="threads"):
        with pytest.raises((TaskExecutionError, CancelledTaskError)):
            fed.run_round()


def test_clean_round_logs_no_drops():
    fed = Federation(
        make_config(), make_clients(), FederatedConfig(rounds=1, quorum=0.5, seed=1)
    )
    with Runtime(executor="threads"):
        metrics = fed.run_round()
    assert metrics.dropped_clients == []
    (entry,) = fed.provenance_log
    assert entry["dropped_clients"] == []
    assert entry["errors"] == []


def test_quorum_with_server_momentum_path():
    fed = Federation(
        make_config(),
        make_clients(failing={1}),
        FederatedConfig(rounds=1, quorum=0.5, server_momentum=0.9, seed=1),
    )
    with Runtime(executor="threads"):
        metrics = fed.run_round()
    assert metrics.dropped_clients == [1]
