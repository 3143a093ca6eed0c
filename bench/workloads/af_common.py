"""What the two AF workloads share: the scaled ``small`` preset, the
dataset set-up and the frozen references of ``bench/refs.json``."""

from __future__ import annotations

import dataclasses
import json

from harness import NUMERIC_ENV, REFS, BenchRuntime, Workload, clock, environment
from repro.ecg.dataset import DURATION_RANGE
from repro.workflows import af_pipeline
from repro.workflows.experiments import get_preset


def preset_config(seed: int, sizes: dict):
    """The ``small`` preset's pipeline with the run's seed and the
    fields the benchmark freezes (``scale``, ``target_length``;
    ``--smoke`` also raises ``decimate`` to shrink the PCA)."""
    preset = get_preset("small")
    frozen = {k: sizes[k] for k in ("scale", "decimate") if k in sizes}
    # pad to the generator's longest possible recording, not to the
    # longest one this seed happened to draw: the feature count (and
    # with it the PCA cost and the memory) is then the same on every seed
    target = int(DURATION_RANGE[1] * preset.pipeline.fs)
    return preset, dataclasses.replace(
        preset.pipeline, seed=seed, target_length=target, **frozen
    )


def numeric_env() -> dict:
    env = environment()
    return {k: env[k] for k in NUMERIC_ENV}


def frozen_reference(workload: str, seed: int, sizes: dict):
    """The frozen outputs for (*workload*, *seed*), or None when there
    are none for this seed, these sizes or this numeric stack — the
    caller then recomputes a reference instead of comparing."""
    try:
        with open(REFS, encoding="utf-8") as fh:
            refs = json.load(fh)
    except FileNotFoundError:
        return None
    entry = refs.get(workload)
    if not entry or entry["sizes"] != sizes or refs.get("env") != numeric_env():
        return None
    return entry["seeds"].get(str(seed))


class AFWorkload(Workload):
    """Set-up of an AF workload: the balanced dataset for the run's
    seed, one discarded round, and the reference every repetition must
    reproduce — the frozen one when it applies, else the discarded
    round's outputs."""

    def _round(self, b: BenchRuntime) -> tuple:
        """One round of the workload; its outputs come first."""
        raise NotImplementedError

    def setup(self) -> None:
        self.preset, self.cfg = preset_config(self.seed, self.sz)
        t0 = clock()
        with self.rec.span("ecg.generate"):
            self.dataset = af_pipeline.prepare_dataset(self.cfg)
        self.setup_layer["ecg.generate_s"] = clock() - t0
        with BenchRuntime(self) as b:
            self.computed = self._round(b)[0]
        frozen = frozen_reference(self.name, self.seed, self.sz)
        self.want = frozen if frozen is not None else self.computed
        self.reference = "frozen" if frozen is not None else "recomputed"
