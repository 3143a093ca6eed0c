"""Federated learning: partitioning, aggregation, end-to-end rounds."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federated import (
    ClientData,
    FederatedConfig,
    Federation,
    dirichlet_partition,
    fedavg,
    fedavg_with_momentum,
    iid_partition,
    partition_stats,
)
from repro.nn import Sequential
from repro.nn.layers import Dense, ReLU
from repro.runtime import Runtime


def make_config(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential([Dense(4, 12, rng), ReLU(), Dense(12, 2, rng)]).config()


def make_task_data(n=400, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 4))
    y = (x[:, 0] + x[:, 1] > 0).astype(int)
    return x, y


class TestPartition:
    def test_iid_covers_everything(self, rng):
        parts = iid_partition(103, 5, rng)
        allidx = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(allidx, np.arange(103))
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_iid_validation(self, rng):
        with pytest.raises(ValueError):
            iid_partition(10, 0, rng)
        with pytest.raises(ValueError):
            iid_partition(2, 5, rng)

    def test_dirichlet_covers_everything(self, rng):
        labels = np.array([0] * 60 + [1] * 40)
        parts = dirichlet_partition(labels, 4, alpha=0.5, rng=rng)
        allidx = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(allidx, np.arange(100))

    def test_dirichlet_low_alpha_skews(self):
        rng = np.random.default_rng(7)
        labels = np.array([0] * 500 + [1] * 500)
        parts = dirichlet_partition(labels, 4, alpha=0.05, rng=rng)
        stats = partition_stats(parts, labels)
        # at least one client should be strongly dominated by a class
        dominances = [
            max(h.values()) / max(sum(h.values()), 1)
            for h in stats["label_histograms"]
        ]
        assert max(dominances) > 0.8

    def test_dirichlet_high_alpha_near_iid(self):
        rng = np.random.default_rng(7)
        labels = np.array([0] * 500 + [1] * 500)
        parts = dirichlet_partition(labels, 4, alpha=100.0, rng=rng)
        stats = partition_stats(parts, labels)
        for h in stats["label_histograms"]:
            frac = h[0] / (h[0] + h[1])
            assert 0.3 < frac < 0.7

    def test_dirichlet_min_per_client(self, rng):
        labels = np.array([0] * 50 + [1] * 50)
        parts = dirichlet_partition(labels, 10, alpha=0.05, rng=rng, min_per_client=2)
        assert all(len(p) >= 2 for p in parts)

    def test_dirichlet_validation(self, rng):
        with pytest.raises(ValueError):
            dirichlet_partition(np.zeros(10), 2, alpha=0.0, rng=rng)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 8), st.floats(0.05, 10.0))
    def test_property_dirichlet_partition_is_partition(self, seed, k, alpha):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 3, 120)
        parts = dirichlet_partition(labels, k, alpha=alpha, rng=rng)
        allidx = np.concatenate(parts)
        assert len(allidx) == 120
        assert len(np.unique(allidx)) == 120


class TestAggregation:
    def test_fedavg_weighted(self):
        w1 = [np.array([0.0]), np.array([2.0])]
        w2 = [np.array([3.0]), np.array([4.0])]
        out = fedavg([w1, w2], n_samples=[1, 2])
        np.testing.assert_allclose(out[0], [2.0])
        np.testing.assert_allclose(out[1], [2.0 / 3 + 8.0 / 3])

    def test_fedavg_identity_single_client(self):
        w = [np.array([1.0, 2.0])]
        out = fedavg([w], n_samples=[10])
        np.testing.assert_allclose(out[0], w[0])

    def test_fedavg_validation(self):
        with pytest.raises(ValueError):
            fedavg([], [])
        with pytest.raises(ValueError):
            fedavg([[np.zeros(2)]], [1, 2])
        with pytest.raises(ValueError):
            fedavg([[np.zeros(2)]], [0])

    def test_momentum_accelerates(self):
        g = [np.array([0.0])]
        updates = [[np.array([1.0])]]
        w1, v = fedavg_with_momentum(updates, [1], g, None, beta=0.9)
        np.testing.assert_allclose(w1[0], [1.0])
        w2, v = fedavg_with_momentum(updates, [1], w1, v, beta=0.9)
        # momentum pushes beyond the plain average
        assert w2[0][0] > 1.0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 1000))
    def test_property_fedavg_convex(self, k, seed):
        """FedAvg output lies within the per-coordinate envelope of the
        client weights (convex combination)."""
        rng = np.random.default_rng(seed)
        sets = [[rng.standard_normal(3)] for _ in range(k)]
        ns = rng.integers(1, 50, k).tolist()
        out = fedavg(sets, ns)[0]
        stacked = np.stack([s[0] for s in sets])
        assert (out <= stacked.max(axis=0) + 1e-12).all()
        assert (out >= stacked.min(axis=0) - 1e-12).all()


class TestFederation:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            FederatedConfig(rounds=0)
        with pytest.raises(ValueError):
            FederatedConfig(client_fraction=0.0)

    def test_client_data_validation(self):
        with pytest.raises(ValueError):
            ClientData(np.zeros((3, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            ClientData(np.zeros((0, 2)), np.zeros(0))

    def test_empty_federation_rejected(self):
        with pytest.raises(ValueError):
            Federation(make_config(), [])

    def _make_federation(self, n_clients=4, rounds=6, **cfg_kwargs):
        x, y = make_task_data()
        rng = np.random.default_rng(0)
        parts = iid_partition(len(x), n_clients, rng)
        clients = [ClientData(x[p], y[p]) for p in parts]
        cfg = FederatedConfig(rounds=rounds, local_epochs=2, lr=0.05, **cfg_kwargs)
        return Federation(make_config(), clients, cfg), x, y

    def test_convergence_iid(self):
        fed, x, y = self._make_federation()
        history = fed.fit(x, y)
        assert len(history) == 6
        assert history[-1].global_accuracy > 0.85
        # learning actually progressed
        assert history[-1].global_accuracy >= history[0].global_accuracy - 0.05

    def test_convergence_under_threads_runtime(self):
        with Runtime(executor="threads", max_workers=4):
            fed, x, y = self._make_federation(rounds=4)
            history = fed.fit(x, y)
        assert history[-1].global_accuracy > 0.8

    def test_client_sampling_fraction(self):
        fed, x, y = self._make_federation(n_clients=8, rounds=3, client_fraction=0.5)
        fed.fit()
        for m in fed.history:
            assert len(m.selected_clients) == 4

    def test_round_task_graph(self):
        """One client_update task per selected client + one aggregate
        per round — the DAG the paper's future-work section sketches."""
        with Runtime(executor="sequential") as rt:
            fed, x, y = self._make_federation(n_clients=5, rounds=2)
            fed.fit()
            counts = rt.graph.count_by_name()
        assert counts["client_update"] == 2 * 5
        assert counts["aggregate"] == 2

    def test_non_iid_still_learns(self):
        x, y = make_task_data(n=600, seed=3)
        rng = np.random.default_rng(1)
        parts = dirichlet_partition(y, 5, alpha=0.3, rng=rng, min_per_client=10)
        clients = [ClientData(x[p], y[p]) for p in parts]
        cfg = FederatedConfig(rounds=8, local_epochs=2, lr=0.05, seed=1)
        fed = Federation(make_config(), clients, cfg)
        history = fed.fit(x, y)
        assert history[-1].global_accuracy > 0.75

    def test_server_momentum_variant(self):
        fed, x, y = self._make_federation(rounds=4, server_momentum=0.5)
        history = fed.fit(x, y)
        assert history[-1].global_accuracy > 0.7

    def test_global_model_usable(self):
        fed, x, y = self._make_federation(rounds=2)
        fed.fit()
        model = fed.global_model()
        preds = model.predict(x[:10])
        assert preds.shape == (10,)
