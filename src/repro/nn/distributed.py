"""Distributed CNN training — the paper's §III-D strategies.

Three parallelisation schemes over the task runtime:

1. **Non-nested, 4 GPUs per task** (paper option i): each epoch spawns
   one training task per worker shard; inside the task an EDDL-style
   data parallelism splits the shard across 4 simulated GPU replicas
   and averages their weights.  After every epoch the driver
   synchronises to merge worker weights — the synchronisation that
   "stops the generation of tasks" (Fig. 9).
2. **Non-nested, 1 GPU per task** (option ii): same, without the
   intra-task replication (faster per the paper: no inter-GPU
   communication).
3. **Nested** (Fig. 10): one ``fold_train`` task per fold encapsulates
   the whole epoch loop (and its synchronisations), so the K folds of
   the cross-validation run in parallel.

The simulated "GPU" is a worker device: its count is carried as a task
constraint for the cluster simulator, and the intra-task replication
reproduces the *numerics* of multi-GPU averaging; the communication
cost appears at replay time via ``CostModel.gpu_sync_overhead``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.ml.metrics import accuracy_score, confusion_matrix
from repro.nn.model import Sequential
from repro.nn.optim import SGD
from repro.runtime import Constraints, task, wait_on


def _local_data_parallel_epoch(
    model: Sequential,
    x: np.ndarray,
    y: np.ndarray,
    n_gpus: int,
    lr: float,
    batch_size: int,
    seed: int,
) -> None:
    """One epoch of EDDL-style data parallelism across local replicas."""
    if n_gpus <= 1:
        model.fit(x, y, epochs=1, batch_size=batch_size, optimizer=SGD(lr, 0.9), seed=seed)
        return
    start_weights = model.get_weights()
    config = model.config()
    parts = np.array_split(np.arange(len(x)), n_gpus)
    replica_weights = []
    for g, idx in enumerate(parts):
        if len(idx) == 0:
            continue
        replica = Sequential.from_config(config, seed=seed)
        replica.set_weights(start_weights)
        replica.fit(
            x[idx], y[idx], epochs=1, batch_size=batch_size,
            optimizer=SGD(lr, 0.9), seed=seed + g,
        )
        replica_weights.append(replica.get_weights())
    merged = [np.mean([w[i] for w in replica_weights], axis=0) for i in range(len(start_weights))]
    model.set_weights(merged)


def _train_epoch(config, weights, x_shard, y_shard, lr, batch_size, seed, n_gpus):
    model = Sequential.from_config(config, seed=seed)
    model.set_weights(weights)
    _local_data_parallel_epoch(model, x_shard, y_shard, n_gpus, lr, batch_size, seed)
    return model.get_weights()


# Module-level tasks, so a worker process can import them by qualname.
@task(returns=1, constraints=Constraints(gpus=1), name="train_epoch_1gpu")
def _train_epoch_1gpu(config, weights, x_shard, y_shard, lr, batch_size, seed):
    return _train_epoch(config, weights, x_shard, y_shard, lr, batch_size, seed, 1)


@task(returns=1, constraints=Constraints(gpus=4), name="train_epoch_4gpu")
def _train_epoch_4gpu(config, weights, x_shard, y_shard, lr, batch_size, seed):
    return _train_epoch(config, weights, x_shard, y_shard, lr, batch_size, seed, 4)


@task(returns=1, name="merge_weights")
def _merge_weights(weight_sets: list):
    """Average the per-worker weights (the paper's per-epoch merge)."""
    return [np.mean([w[i] for w in weight_sets], axis=0) for i in range(len(weight_sets[0]))]


@task(returns=1, name="evaluate_model")
def _evaluate(config, weights, x_test, y_test):
    model = Sequential.from_config(config)
    model.set_weights(weights)
    pred = model.predict(x_test)
    return pred


@dataclasses.dataclass
class TrainerParams:
    """Hyper-parameters shared by every strategy (paper: 7 epochs/fold)."""

    epochs: int = 7
    n_workers: int = 4
    gpus_per_worker: int = 1
    lr: float = 0.01
    batch_size: int = 32
    seed: int = 0


class DistributedTrainer:
    """Non-nested data-parallel trainer (paper Fig. 9 structure)."""

    def __init__(self, config: list[dict], params: TrainerParams | None = None):
        self.config = config
        self.params = params or TrainerParams()
        if self.params.gpus_per_worker not in (1, 4):
            raise ValueError("gpus_per_worker must be 1 or 4 (paper's options)")
        self._train_task = (
            _train_epoch_1gpu if self.params.gpus_per_worker == 1 else _train_epoch_4gpu
        )

    def fit(self, x: np.ndarray, y: np.ndarray) -> list[np.ndarray]:
        """Train and return the final merged weights (concrete arrays)."""
        p = self.params
        model = Sequential.from_config(self.config, seed=p.seed)
        weights: list[np.ndarray] = model.get_weights()
        shard_idx = np.array_split(np.arange(len(x)), p.n_workers)
        shard_idx = [idx for idx in shard_idx if len(idx)]
        for epoch in range(p.epochs):
            updated = [
                self._train_task(
                    self.config, weights, x[idx], y[idx],
                    p.lr, p.batch_size, p.seed + 97 * epoch + i,
                )
                for i, idx in enumerate(shard_idx)
            ]
            merged = _merge_weights(updated)
            # The synchronisation of Fig. 9: the driver must retrieve
            # the merged weights before generating the next epoch.
            weights = wait_on(merged)
        return weights


@task(returns=1, name="fold_train")
def _fold_train(config, x_tr, y_tr, x_te, y_te, params: TrainerParams):
    """One nested fold task (Fig. 10): the epoch loop and its
    synchronisations run *inside* this task, so sibling folds proceed
    in parallel."""
    trainer = DistributedTrainer(config, params)
    weights = trainer.fit(x_tr, y_tr)
    model = Sequential.from_config(config)
    model.set_weights(weights)
    pred = model.predict(x_te)
    return pred, np.asarray(y_te)


def cnn_cross_validation(
    config: list[dict],
    x: np.ndarray,
    y: np.ndarray,
    n_splits: int = 5,
    params: TrainerParams | None = None,
    nested: bool = False,
    random_state: int = 0,
):
    """K-fold cross-validation of the CNN under either strategy.

    Returns a dict with per-fold accuracies, the averaged normalised
    confusion matrix, and the label set — the paper's Table Id inputs.
    """
    from repro.ml.model_selection import KFold

    params = params or TrainerParams()
    y = np.asarray(y, dtype=int)
    labels = np.unique(y)
    kf = KFold(n_splits=n_splits, shuffle=True, random_state=random_state)
    fold_results = []
    for train_idx, test_idx in kf.split(len(x)):
        if nested:
            fold_results.append(
                _fold_train(config, x[train_idx], y[train_idx], x[test_idx], y[test_idx], params)
            )
        else:
            trainer = DistributedTrainer(config, params)
            weights = trainer.fit(x[train_idx], y[train_idx])
            pred = wait_on(_evaluate(config, weights, x[test_idx], y[test_idx]))
            fold_results.append((pred, y[test_idx]))
    fold_results = wait_on(fold_results)

    accs, cms = [], []
    for pred, truth in fold_results:
        accs.append(accuracy_score(truth, pred))
        cms.append(confusion_matrix(truth, pred, labels=labels, normalize="all"))
    return {
        "fold_accuracies": accs,
        "mean_accuracy": float(np.mean(accs)),
        "mean_confusion": np.mean(cms, axis=0),
        "labels": labels,
    }
