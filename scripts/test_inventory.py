#!/usr/bin/env python
"""Test-inventory gate: every module under ``src/repro`` must have a
test file.

A module ``src/repro/a/b/foo.py`` counts as covered when either

* some ``test_*.py`` under ``tests/`` or ``benchmarks/`` carries the
  module's stem as whole ``_``-delimited tokens of its filename (``foo``
  -> ``test_foo.py``, ``test_foo_bar.py``; not ``test_foobar.py``), or
* ``EXTRA_COVERAGE`` maps it to the test file that exercises it under a
  different name (the mapping is validated: the file must exist, and a
  mapping for a module that a filename already matches is flagged as
  stale so the table cannot rot).

The filename heuristic is deliberately simple — it checks that someone
*claimed* the module, not that the tests are good — so keep new module
and test names aligned and the mapping short.  Exits non-zero listing
every uncovered module; ``scripts/check.sh inventory`` runs this.
"""

from __future__ import annotations

import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"
TEST_DIRS = (REPO_ROOT / "tests", REPO_ROOT / "benchmarks")

#: Entry points / generated stamps with no testable surface of their own
#: (``__main__`` just forwards to ``repro.cli``, which has tests).
EXEMPT = {"__main__.py", "_version.py"}

#: Packages held to a stricter rule: the matching test file must live in
#: the package's own test directory, not merely anywhere under tests/ or
#: benchmarks/.  Concurrency-heavy subsystems earn an entry here so a
#: coincidental filename elsewhere can never satisfy the gate.
STRICT_DIRS = {
    "streaming": "tests/streaming",
}

#: module (relative to src/repro) -> test file (relative to repo root)
#: that exercises it despite the name mismatch.
EXTRA_COVERAGE = {
    "cluster/resources.py": "tests/cluster/test_simulator.py",
    "dsarray/blocking.py": "tests/dsarray/test_ops.py",
    "dsarray/creation.py": "tests/dsarray/test_array.py",
    "ecg/augmentation.py": "tests/ecg/test_rpeaks_augment_features.py",
    "edge/device.py": "tests/edge/test_edge.py",
    "edge/export.py": "tests/edge/test_edge.py",
    "federated/aggregation.py": "tests/federated/test_federated.py",
    "federated/partition.py": "tests/federated/test_federated.py",
    "ml/base.py": "tests/ml/test_smo_svc.py",
    "ml/model_selection/cross_val.py": "tests/ml/test_model_selection.py",
    "ml/model_selection/kfold.py": "tests/ml/test_model_selection.py",
    "ml/neighbors/nearest.py": "tests/ml/test_neighbors.py",
    "ml/svm/kernels.py": "tests/ml/test_smo_svc.py",
    "ml/trees/tree.py": "tests/ml/test_trees.py",
    "nn/initializers.py": "tests/nn/test_layers.py",
    "nn/losses.py": "tests/nn/test_model_optim.py",
    "runtime/dag.py": "tests/runtime/test_graph_trace_dot.py",
    "runtime/exceptions.py": "tests/runtime/test_failure_policies.py",
    "runtime/future.py": "tests/runtime/test_task_basic.py",
    "runtime/provenance.py": "tests/runtime/test_checkpoint_resume.py",
    "runtime/registry.py": "tests/runtime/test_directions.py",
    "service/demo.py": "tests/service/test_worker.py",
}


def source_modules() -> list[pathlib.Path]:
    return sorted(
        p
        for p in SRC.rglob("*.py")
        if p.name != "__init__.py" and p.name not in EXEMPT
    )


def test_file_names() -> set[str]:
    names: set[str] = set()
    for root in TEST_DIRS:
        names.update(p.name.lower() for p in root.rglob("test_*.py"))
    return names


def strict_test_names(test_dir: str) -> set[str]:
    return {
        p.name.lower() for p in (REPO_ROOT / test_dir).rglob("test_*.py")
    }


def names_module(test_name: str, stem: str) -> bool:
    """Whether *stem* is a run of whole ``_``-delimited tokens of the
    test file name: ``base`` is not named by ``test_rr_baseline.py``."""
    return f"_{stem}_" in f"_{test_name.removesuffix('.py')}_"


def main() -> int:
    test_names = test_file_names()
    uncovered: list[str] = []
    stale: list[str] = []
    broken: list[str] = []

    for module in source_modules():
        rel = module.relative_to(SRC).as_posix()
        package = rel.split("/", 1)[0]
        strict_dir = STRICT_DIRS.get(package)
        if strict_dir is not None:
            candidates = strict_test_names(strict_dir)
        else:
            candidates = test_names
        name_match = any(names_module(t, module.stem.lower()) for t in candidates)
        if strict_dir is not None:
            if not name_match:
                uncovered.append(f"{rel} (needs a test under {strict_dir}/)")
            continue
        mapped = EXTRA_COVERAGE.get(rel)
        if mapped is not None:
            if not (REPO_ROOT / mapped).is_file():
                broken.append(f"{rel} -> {mapped} (mapped test file missing)")
            elif name_match:
                stale.append(f"{rel} (filename already matches; drop the mapping)")
            continue
        if not name_match:
            uncovered.append(rel)

    ok = True
    if uncovered:
        ok = False
        print("modules with no test file (add tests or map in "
              "scripts/test_inventory.py EXTRA_COVERAGE):")
        for rel in uncovered:
            print(f"  src/repro/{rel}")
    if broken:
        ok = False
        print("broken EXTRA_COVERAGE entries:")
        for line in broken:
            print(f"  {line}")
    if stale:
        ok = False
        print("stale EXTRA_COVERAGE entries:")
        for line in stale:
            print(f"  {line}")
    if ok:
        n = len(source_modules())
        print(f"test inventory: {n} modules covered "
              f"({len(EXTRA_COVERAGE)} via explicit mapping)")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
