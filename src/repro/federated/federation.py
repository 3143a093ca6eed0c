"""Federated training over the task runtime.

One round = one task per selected client (local epochs of SGD on
private data) plus one aggregation task; the runtime parallelises the
client updates exactly as it parallelises any other workflow, and the
cluster simulator can replay a federation trace on an edge-device
topology.  This implements the paper's future-work proposal
(§V: devices with local data train local models whose outcomes are
combined by a general model), reusing :mod:`repro.nn` models.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np

from repro.federated.aggregation import fedavg, fedavg_with_momentum
from repro.nn.model import Sequential
from repro.nn.optim import SGD
from repro.runtime import task, wait_on
from repro.runtime.exceptions import CancelledTaskError, TaskExecutionError


class FederatedRoundError(RuntimeError):
    """Too few client updates survived a round to reach the quorum."""


@dataclasses.dataclass
class ClientData:
    """One device's private shard."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError("x and y length mismatch")
        if len(self.x) == 0:
            raise ValueError("empty client shard")

    @property
    def n_samples(self) -> int:
        return len(self.x)


@dataclasses.dataclass
class FederatedConfig:
    rounds: int = 10
    local_epochs: int = 1
    lr: float = 0.05
    batch_size: int = 16
    #: fraction of clients selected each round (1.0 = all)
    client_fraction: float = 1.0
    server_momentum: float | None = None
    #: FedProx proximal coefficient; None = plain FedAvg local SGD
    proximal_mu: float | None = None
    #: Fraction of a round's selected clients whose updates must
    #: survive for the round to proceed (graceful degradation).  At the
    #: default 1.0 any client failure fails the round, matching the
    #: strict behaviour; below 1.0 failed/cancelled client updates are
    #: dropped from aggregation and logged to the provenance log.
    quorum: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rounds < 1 or self.local_epochs < 1:
            raise ValueError("rounds and local_epochs must be >= 1")
        if not 0.0 < self.client_fraction <= 1.0:
            raise ValueError("client_fraction must be in (0, 1]")
        if not 0.0 < self.quorum <= 1.0:
            raise ValueError("quorum must be in (0, 1]")
        if self.proximal_mu is not None and self.proximal_mu < 0:
            raise ValueError("proximal_mu must be >= 0")


@task(returns=1, name="client_update")
def _client_update(config, weights, x, y, local_epochs, lr, batch_size, seed):
    """One client's local training (runs on the client's device)."""
    model = Sequential.from_config(config, seed=seed)
    model.set_weights(weights)
    model.fit(
        x, y, epochs=local_epochs, batch_size=batch_size,
        optimizer=SGD(lr, 0.9), seed=seed,
    )
    return model.get_weights()


@task(returns=1, name="client_update_prox")
def _client_update_prox(config, weights, x, y, local_epochs, lr, batch_size, seed, mu):
    """FedProx client update (Li et al., 2020): local SGD with a
    proximal pull ``mu * (w - w_global)`` added to every gradient,
    bounding client drift on non-IID shards."""
    model = Sequential.from_config(config, seed=seed)
    model.set_weights(weights)
    global_w = [w.copy() for w in weights]
    opt = SGD(lr, 0.9)
    rng = np.random.default_rng(seed)
    for _ in range(local_epochs):
        order = rng.permutation(len(x))
        for start in range(0, len(x), batch_size):
            idx = order[start : start + batch_size]
            logits = model.forward(x[idx], training=True)
            model.backward(model.loss_fn.grad(logits, y[idx]))
            params = [p for layer in model.layers for p in layer.params]
            grads = [
                g + mu * (p - gw)
                for p, g, gw in zip(
                    params,
                    (g for layer in model.layers for g in layer.grads),
                    global_w,
                )
            ]
            opt.step(params, grads)
    return model.get_weights()


@task(returns=1, name="aggregate")
def _aggregate(weight_sets, n_samples):
    return fedavg(weight_sets, n_samples)


@dataclasses.dataclass
class RoundMetrics:
    round: int
    selected_clients: list[int]
    global_accuracy: float | None
    #: Clients whose updates failed and were excluded by the quorum
    #: policy (empty under strict quorum=1.0 operation).
    dropped_clients: list[int] = dataclasses.field(default_factory=list)


class Federation:
    """Coordinates federated rounds over a set of client shards."""

    def __init__(
        self,
        model_config: list[dict],
        clients: list[ClientData],
        config: FederatedConfig | None = None,
    ):
        if not clients:
            raise ValueError("a federation needs at least one client")
        self.model_config = model_config
        self.clients = clients
        self.config = config or FederatedConfig()
        self._rng = np.random.default_rng(self.config.seed)
        model = Sequential.from_config(model_config, seed=self.config.seed)
        self.global_weights: list[np.ndarray] = model.get_weights()
        self.history: list[RoundMetrics] = []
        #: One dict per round with failure-management provenance:
        #: selected/surviving/dropped clients and the errors observed.
        self.provenance_log: list[dict] = []
        self._velocity: list[np.ndarray] | None = None

    # ------------------------------------------------------------------
    def select_clients(self) -> list[int]:
        n = len(self.clients)
        k = max(1, int(round(self.config.client_fraction * n)))
        return sorted(self._rng.choice(n, size=k, replace=False).tolist())

    def run_round(self, eval_fn: Callable[[Sequential], float] | None = None) -> RoundMetrics:
        """One federated round: parallel client updates + aggregation."""
        cfg = self.config
        selected = self.select_clients()
        if cfg.proximal_mu is not None:
            updates = [
                _client_update_prox(
                    self.model_config,
                    self.global_weights,
                    self.clients[c].x,
                    self.clients[c].y,
                    cfg.local_epochs,
                    cfg.lr,
                    cfg.batch_size,
                    cfg.seed + 31 * len(self.history) + c,
                    cfg.proximal_mu,
                )
                for c in selected
            ]
        else:
            updates = [
                _client_update(
                    self.model_config,
                    self.global_weights,
                    self.clients[c].x,
                    self.clients[c].y,
                    cfg.local_epochs,
                    cfg.lr,
                    cfg.batch_size,
                    cfg.seed + 31 * len(self.history) + c,
                )
                for c in selected
            ]
        n_samples = [self.clients[c].n_samples for c in selected]
        dropped: list[int] = []
        errors: list[str] = []
        if cfg.quorum < 1.0:
            # Graceful degradation: synchronise each client update
            # individually, dropping failed/cancelled ones, and proceed
            # with the survivors as long as the quorum holds.
            survivors: list[int] = []
            weight_sets = []
            kept_samples: list[int] = []
            for c, fut, n in zip(selected, updates, n_samples):
                try:
                    weight_sets.append(wait_on(fut))
                    survivors.append(c)
                    kept_samples.append(n)
                except (TaskExecutionError, CancelledTaskError) as exc:
                    dropped.append(c)
                    errors.append(f"client {c}: {exc}")
            required = max(1, math.ceil(cfg.quorum * len(selected)))
            if len(survivors) < required:
                raise FederatedRoundError(
                    f"round {len(self.history)}: only {len(survivors)} of "
                    f"{len(selected)} client updates survived, quorum "
                    f"requires {required}"
                )
            updates, n_samples = weight_sets, kept_samples
        else:
            survivors = list(selected)

        if cfg.server_momentum is not None:
            weight_sets = wait_on(updates)
            self.global_weights, self._velocity = fedavg_with_momentum(
                weight_sets, n_samples, self.global_weights,
                self._velocity, beta=cfg.server_momentum,
            )
        else:
            self.global_weights = wait_on(_aggregate(updates, n_samples))

        acc = None
        if eval_fn is not None:
            acc = float(eval_fn(self.global_model()))
        metrics = RoundMetrics(
            round=len(self.history),
            selected_clients=selected,
            global_accuracy=acc,
            dropped_clients=dropped,
        )
        self.provenance_log.append(
            {
                "round": len(self.history),
                "selected": list(selected),
                "survivors": survivors,
                "dropped_clients": list(dropped),
                "errors": list(errors),
            }
        )
        self.history.append(metrics)
        return metrics

    def fit(
        self,
        x_test: np.ndarray | None = None,
        y_test: np.ndarray | None = None,
        checkpoint_dir=None,
        checkpoint_every: int = 1,
        checkpoint_tag: str = "federation",
    ) -> list[RoundMetrics]:
        """Run all configured rounds; evaluates on (x_test, y_test)
        after each round when provided.

        With ``checkpoint_dir`` (a path or a
        :class:`~repro.runtime.checkpoint.CheckpointStore`), the
        federation state — global weights, server momentum, history,
        provenance log and client-selection RNG — is persisted every
        ``checkpoint_every`` rounds.  A federation killed between rounds
        and re-run with the same store resumes after the last saved
        round and converges to bit-identical global weights.
        """
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        eval_fn = None
        if x_test is not None and y_test is not None:
            eval_fn = lambda model: model.evaluate(x_test, y_test)  # noqa: E731

        store = None
        if checkpoint_dir is not None:
            from repro.runtime.checkpoint import as_store

            store = as_store(checkpoint_dir)

        start = 0
        if store is not None:
            saved = store.get(checkpoint_tag)
            if saved is not None:
                state = saved[0]
                self.global_weights = state["global_weights"]
                self._velocity = state["velocity"]
                self.history = list(state["history"])
                self.provenance_log = list(state["provenance_log"])
                self._rng.bit_generator.state = state["rng"]
                start = len(self.history)

        for round_no in range(start, self.config.rounds):
            self.run_round(eval_fn)
            if store is not None and (
                (round_no + 1) % checkpoint_every == 0
                or round_no + 1 == self.config.rounds
            ):
                store.put(
                    checkpoint_tag,
                    "federation.fit",
                    (
                        {
                            "global_weights": [w.copy() for w in self.global_weights],
                            "velocity": (
                                None
                                if self._velocity is None
                                else [v.copy() for v in self._velocity]
                            ),
                            "history": list(self.history),
                            "provenance_log": list(self.provenance_log),
                            "rng": self._rng.bit_generator.state,
                        },
                    ),
                )
        return self.history

    def global_model(self) -> Sequential:
        model = Sequential.from_config(self.model_config, seed=self.config.seed)
        model.set_weights(self.global_weights)
        return model
