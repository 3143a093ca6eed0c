"""Shared benchmark infrastructure.

Every benchmark regenerates one of the paper's tables or figures:
it runs the real workload locally (recording a task trace where the
experiment is about scalability), replays it on the simulated testbed
where needed, asserts the paper's qualitative *shape*, and writes the
resulting table/series to ``benchmarks/results/`` so EXPERIMENTS.md
can reference concrete artefacts.  What the runtime's own layers cost
is not measured here: ``bench/`` is the one benchmark writer
(``bench/README.md``).
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def write_result(results_dir):
    from repro.runtime import atomic_write

    def _write(name: str, text: str) -> None:
        atomic_write(results_dir / f"{name}.txt", text + "\n")

    return _write


def make_blobs(n, d, sep=2.0, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    x = np.vstack(
        [rng.normal(-sep / 2, 1.0, (half, d)), rng.normal(sep / 2, 1.0, (n - half, d))]
    )
    y = np.array([0.0] * half + [1.0] * (n - half)).reshape(-1, 1)
    order = rng.permutation(n)
    return x[order], y[order]
