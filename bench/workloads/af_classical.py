"""``af_classical``: the paper's Fig. 11 / Table I pipeline.

One shared ``prepare_dataset`` (set-up), then ``run_classical`` for
CSVM, KNN and RF: STFT → PCA → 5-fold CV.  Hundreds of tasks whose bodies
(``repro.ml`` SMO/trees, ``repro.ecg`` STFT) are milliseconds each, so
engine, backends and store should be a few per cent of the wall.  It is
the **control**: runtime changes predict no movement here; ``ml``,
``ecg``, ``dsarray`` changes and GIL body inflation do.
"""

from __future__ import annotations

import contextlib

import repro.dsarray as ds
from harness import BenchRuntime, Rep
from repro.workflows import af_pipeline
from workloads.af_common import AFWorkload

MODELS = ("csvm", "knn", "rf")


def outputs(result) -> dict:
    """Accuracy, per-fold accuracies and per-fold confusion matrices as
    plain JSON values (so they compare exactly with ``refs.json``)."""
    return {
        "accuracy": result.accuracy,
        "folds": [float(a) for a in result.cv.fold_accuracies],
        "confusions": [m.tolist() for m in result.cv.confusion_matrices],
    }


class AFClassical(AFWorkload):
    name = "af_classical"
    op = "task"
    #: ``small`` preset with scale frozen at 0.004 (42 recordings).  The
    #: preset's decimate=8 and 40 trees make a 1.8 s round, two thirds
    #: of it one PCA eigendecomposition and most of the rest the forest;
    #: decimate=16 and 10 trees leave a 0.35 s round in which the CV
    #: tasks have the larger share
    FULL = {"scale": 0.004, "decimate": 16, "rf_trees": 10}
    SMOKE = {"scale": 0.002, "decimate": 64, "rf_trees": 10}

    @property
    def overrides(self) -> dict[str, dict]:
        return {"rf": {"n_estimators": self.sz["rf_trees"]}}

    def _round(self, b: BenchRuntime) -> tuple[dict, int, dict]:
        """The three models, each a named part of the repetition."""
        got, cv_s = {}, {}
        for model in MODELS:
            with b.part(f"workflows.run_classical.{model}"):
                result = af_pipeline.run_classical(
                    model, self.cfg, dataset=self.dataset,
                    estimator_overrides=self.overrides.get(model),
                )
            got[model] = outputs(result)
            cv_s[f"ml.{model}_cv_s"] = result.train_time_s
        return got, b.rt.stats()["n_tasks"], cv_s

    def rep(self, **pins) -> Rep:
        rec = self.rec
        with contextlib.ExitStack() as stack:
            stack.enter_context(
                rec.patch(
                    af_pipeline,
                    {
                        "extract_features": "ecg.stft",
                        "reduce_dimensions": "ml.pca",
                        "cross_validate": "ml.cv",
                    },
                )
            )
            stack.enter_context(rec.patch(ds, {"array": "dsarray.create"}))
            with BenchRuntime(self, **pins) as b, b.timed():
                got, n_tasks, cv_s = self._round(b)
        rep = b.result(n_tasks, got)
        if b.layer:
            rep.layer.update(cv_s)
            rep.layer["ecg.stft_s"] = rec.total("ecg.stft", rec.rep)
            rep.layer["ml.pca_s"] = rec.total("ml.pca", rec.rep)
            rep.layer["dsarray.create_s"] = rec.total("dsarray.create", rec.rep)
            rep.layer["workflows.accuracy"] = sum(
                got[m]["accuracy"] for m in MODELS
            ) / len(MODELS)
        return rep

    def extras(self, base_wall, layer):
        out = self.seq_baseline(layer)
        out["obs.metrics_overhead_frac"] = (
            self.ablate(observability="metrics") / base_wall - 1.0
        )
        out["obs.collect_trace_cost_frac"] = (
            base_wall / self.ablate(collect_trace=False) - 1.0
        )
        return out
