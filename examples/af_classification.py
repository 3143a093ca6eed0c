#!/usr/bin/env python
"""The paper's headline workflow: AF detection from ECG recordings.

Run:  python examples/af_classification.py

Generates a CinC-2017-like dataset (imbalanced N vs AF), balances it
with the shuffling-based augmentation of Fig. 2, extracts STFT
features, reduces them with the covariance-method PCA (95% variance;
with fewer recordings than features its one decomposition task is the
thin SVD of the centered rows), and cross-validates the three classical classifiers the paper compares
— printing a Table-I-style report.
"""

import time

from repro.runtime import Runtime
from repro.workflows import (
    PipelineConfig,
    prepare_dataset,
    run_study,
    side_by_side,
    table1_block,
)


def main():
    cfg = PipelineConfig(
        scale=0.01,          # 52 N + 8 AF before augmentation
        seed=0,
        block_size=(32, 128),
        n_splits=5,
        decimate=8,
    )
    print("preparing dataset (synthetic PhysioNet substitute)...")
    t0 = time.perf_counter()
    dataset = prepare_dataset(cfg)
    counts = dataset.class_counts()
    print(
        f"  {counts['N']} Normal + {counts['AF']} AF recordings "
        f"(balanced by patch-shuffle augmentation) "
        f"in {time.perf_counter() - t0:.1f}s"
    )

    blocks = []
    with Runtime(executor="threads", max_workers=4):
        # one graph: STFT and PCA run once, the three 5-fold
        # cross-validations hang off the same futures
        names = {"csvm": "CSVM", "knn": "KNN", "rf": "Random Forest"}
        for algo, res in run_study(tuple(names), cfg, dataset).items():
            name = names[algo]
            print(
                f"{name}: accuracy {res.accuracy * 100:.1f}%  "
                f"({res.n_features_in} features -> {res.n_components} PCs, "
                f"{res.train_time_s:.1f}s)"
            )
            blocks.append(
                table1_block(name, res.accuracy, res.confusion, ["N", "AF"])
            )

        # the paper's fourth model: the CNN on STFT spectrograms,
        # trained with the nested distributed driver
        from repro.workflows import run_cnn

        t0 = time.perf_counter()
        cnn = run_cnn(cfg, dataset, epochs=12, n_workers=4, nested=True, lr=0.05)
        print(
            f"CNN: accuracy {cnn['mean_accuracy'] * 100:.1f}%  "
            f"(spectrogram input, {time.perf_counter() - t0:.1f}s)"
        )
        blocks.append(
            table1_block("CNN", cnn["mean_accuracy"], cnn["mean_confusion"], ["N", "AF"])
        )
    print()
    print(side_by_side(blocks))


if __name__ == "__main__":
    main()
