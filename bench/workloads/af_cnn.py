"""``af_cnn``: the paper's Fig. 12 — data-parallel CNN training, nested
then non-nested.

``repro.nn`` conv/backprop bodies; the only workload with nested tasks
(``fold_train`` spawning ``train_epoch_1gpu`` / ``merge_weights``) and
help-while-waiting.
"""

from __future__ import annotations

from harness import BenchRuntime, Rep
from repro.workflows import af_pipeline
from workloads.af_common import AFWorkload


class AFCnn(AFWorkload):
    name = "af_cnn"
    op = "task"
    #: 104 recordings, the paper's 7 epochs, one trainer per core
    FULL = {"scale": 0.01, "epochs": 7, "n_workers": 2}
    SMOKE = {"scale": 0.003, "epochs": 1, "n_workers": 2}

    def _round(self, b: BenchRuntime) -> tuple[dict, int]:
        """Nested then non-nested, each a named part of the repetition."""
        got = {}
        for mode, nested in (("nested", True), ("flat", False)):
            with b.part(f"nn.{mode}"):
                result = af_pipeline.run_cnn(
                    self.cfg, self.dataset,
                    epochs=self.sz["epochs"], n_workers=self.sz["n_workers"],
                    nested=nested, downsample=self.preset.cnn_downsample,
                    lr=self.preset.cnn_lr,
                )
            got[mode] = {
                "accuracy": result["mean_accuracy"],
                "confusion": result["mean_confusion"].tolist(),
            }
        return got, b.rt.stats()["n_tasks"]

    def rep(self, **pins) -> Rep:
        rec = self.rec
        with BenchRuntime(self, **pins) as b, b.timed():
            got, n_tasks = self._round(b)
        rep = b.result(n_tasks, got)
        if b.layer:
            rep.layer.update(
                {
                    "nn.nested_s": rec.total("nn.nested", rec.rep),
                    "nn.flat_s": rec.total("nn.flat", rec.rep),
                    "nn.train_task_s": b.layer.get("body.train_epoch_1gpu", 0.0),
                    "nn.merge_task_s": b.layer.get("body.merge_weights", 0.0),
                    "workflows.accuracy": (
                        got["nested"]["accuracy"] + got["flat"]["accuracy"]
                    ) / 2,
                }
            )
        return rep

    def extras(self, base_wall, layer):
        return self.seq_baseline(layer)
