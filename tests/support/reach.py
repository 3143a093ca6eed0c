"""Function-level reach recorder for ``src/repro``.

``python tests/support/reach.py`` runs the study's run set (every CLI
subcommand once, every ``examples/`` script, ``pytest benchmarks/`` and
``bench/run.py --smoke``), each command in a subprocess that records,
through ``sys.settrace`` and ``threading.settrace`` call events only,
which functions of ``src/repro`` it enters.  It then lists, per package,
every ``def``/``class`` never entered and exits 1 when one of them is
neither in ``KEEP`` nor under ``HAND_CHECKED`` (``scripts/check.sh
reach``).

A class counts as entered when one of its methods runs or an instance
of it is ``self`` in a generated method (a dataclass ``__init__``).
pytest-benchmark switches tracing off while it times a body, so the
figure benchmarks run with ``--benchmark-disable`` (each body once).  A
child process starts recording from the ``sitecustomize`` module the
runner puts first on ``PYTHONPATH`` and writes what it saw at exit, so
a process that leaves by ``os._exit`` (a pool worker) adds nothing.
``pytest benchmarks/`` rewrites ``benchmarks/results/``; the runner
puts those files back as it found them.
"""

from __future__ import annotations

import ast
import atexit
import fnmatch
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import threading

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
_PREFIX = str(SRC) + os.sep
_seen: set[tuple[str, str]] = set()

#: Definitions kept although the study does not reach them (or,
#: exported, although nothing outside their module names them), as
#: ``fnmatch`` patterns over ``module:qualname``.  Each pattern has its
#: line in DESIGN.md §20, which says what needs it.
KEEP = (
    # the paper's own programming model and substitutions (§1)
    "runtime/compat.py:compss_*",
    "nn/optim.py:Adam",
    "ml/svm/kernels.py:linear_kernel",
    "ml/svm/kernels.py:poly_kernel",
    "ml/decomposition/pca.py:_partial_cov",
    "ml/decomposition/pca.py:_reduce_cov",
    "ml/decomposition/pca.py:_eigendecomposition",
    "dsarray/array.py:Array.T",
    "dsarray/array.py:Array.transpose",
    "dsarray/array.py:Array.map_blocks",
    "dsarray/array.py:Array.__getitem__",
    "dsarray/blocking.py:transpose_block",
    "dsarray/blocking.py:apply_block",
    "dsarray/blocking.py:full_block",
    "dsarray/creation.py:full",
    "dsarray/creation.py:zeros",
    "dsarray/creation.py:ones",
    "ecg/dataset.py:PAPER_N_*",
    "ecg/features.py:PAPER_MAX_LENGTH",
    "ecg/dataset.py:Record.duration",
    "ecg/dataset.py:Dataset.subset",
    "ecg/dataset.py:Dataset.shuffled",
    "ecg/dataset.py:Dataset.max_length",
    "ecg/dataset.py:save_npz",
    "ecg/dataset.py:load_npz",
    # documented extensions: tutorial, README layout, §V
    "dsarray/array.py:Array.persist",
    "dsarray/ops.py:vstack",
    "dsarray/blocking.py:vstack_blocks",
    "dsarray/ops.py:save_npz",
    "dsarray/ops.py:load_npz",
    "ml/metrics.py:f1_score",
    "ml/base.py:BaseEstimator.*",
    "nn/optim.py:SGD.*state_dict",
    "nn/model.py:Sequential.fit.<locals>._save",
    "cluster/simulator.py:CheckpointSpec",
    "cluster/simulator.py:CheckpointWrite",
    "cluster/simulator.py:SimResult.checkpoint_overhead",
    "federated/aggregation.py:fedavg_with_momentum",
    "federated/federation.py:_client_update_prox",
    "cli.py:_render_flightrec_dump",
    # the estimator protocol: what a fitted model answers
    "ml/*:*.score",
    "ml/svm/csvm.py:_count_correct",
    "ml/svm/csvm.py:CascadeSVM.decision_function",
    "ml/clustering/kmeans.py:KMeans.predict",
    "ml/clustering/kmeans.py:KMeans.fit_predict",
    "ml/clustering/kmeans.py:_predict_stripe",
    "ml/decomposition/pca.py:PCA.inverse_transform",
    "ml/decomposition/pca.py:_inverse_stripe",
    "ml/decomposition/pca.py:PCA.mean_",
    "ml/preprocessing/scaler.py:StandardScaler.mean_",
    "ml/preprocessing/scaler.py:StandardScaler.std_",
    # public result types, and errors raised only when something fails
    "cluster/simulator.py:Placement",
    "cluster/replay.py:SweepPoint",
    "edge/device.py:StreamReport*",
    "edge/device.py:WindowResult",
    "federated/federation.py:RoundMetrics",
    "ml/svm/smo.py:SMOResult",
    "runtime/observability.py:CriticalPath",
    "streaming/serving.py:ServingResult",
    "streaming/graph.py:StageStats",
    "workflows/af_pipeline.py:ClassicalResult",
    "workflows/af_pipeline.py:StudyFeatures",
    "cluster/simulator.py:DeadClusterError",
    "cluster/simulator.py:OversubscribedTaskError",
    "federated/federation.py:FederatedRoundError",
    "ml/base.py:NotFittedError",
    "streaming/channel.py:StreamClosed",
    "streaming/graph.py:StreamFailure",
    # interfaces, the stream's own surface and Python protocols
    "nn/layers.py:Layer.*",
    "nn/optim.py:Optimizer",
    "streaming/channel.py:Stream.*",
    "streaming/channel.py:_EndOfStream",
    "*.__repr__",
    "*:__dir__",
)

#: Where every unreached definition was checked by hand instead
#: (DESIGN.md §20 sorts them): pool workers are not traced, and most
#: of the rest is failure handling, which is safety code.
HAND_CHECKED = ("runtime/*", "service/*", "streaming/graph.py:*")


def kept(name: str, patterns=KEEP) -> bool:
    return any(fnmatch.fnmatchcase(name, p) for p in patterns)


# --------------------------------------------------------------- recording


def _tracer(frame, event, arg):
    code = frame.f_code
    if not code.co_flags & 1:  # a module or class body, not a call
        return None
    if code.co_filename.startswith(_PREFIX):
        _seen.add((code.co_filename, code.co_qualname))
    elif code.co_filename == "<string>" and code.co_varnames[:1] in (("self",), ("_cls",)):
        obj = frame.f_locals.get(code.co_varnames[0])
        for cls in (obj if isinstance(obj, type) else type(obj)).__mro__:
            path = getattr(sys.modules.get(cls.__module__), "__file__", None) or ""
            if path.startswith(_PREFIX):
                _seen.add((path, f"{cls.__qualname__}.<instance>"))
    return None


def start(out_dir: str) -> None:
    """Record call events in this process and every thread it starts;
    write them to a new file in *out_dir* at exit."""

    def dump() -> None:
        sys.settrace(None)
        threading.settrace(None)
        rows = sorted([os.path.relpath(f, SRC), q] for f, q in _seen)
        out = pathlib.Path(out_dir) / f"{os.getpid()}-{id(rows):x}.json"
        out.write_text(json.dumps(rows))

    atexit.register(dump)
    threading.settrace(_tracer)
    sys.settrace(_tracer)


def definitions() -> list[tuple[str, str]]:
    """``(module path, qualname)`` of every def/class under
    ``src/repro``, each before the definitions nested in it."""
    out: list[tuple[str, str]] = []

    def visit(node: ast.AST, rel: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append((rel, prefix + child.name))
                nested = "." if isinstance(child, ast.ClassDef) else ".<locals>."
                visit(child, rel, prefix + child.name + nested)
            else:
                visit(child, rel, prefix)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text()), path.relative_to(SRC).as_posix(), "")
    return out


def unreached(seen: set[tuple[str, str]]) -> list[str]:
    """``module:qualname`` of every definition never entered, outermost
    only: what is nested in an unreached definition is not listed."""
    reached: set[tuple[str, str]] = set()
    for rel, qualname in seen:  # a call reaches every enclosing definition
        parts = qualname.replace(".<locals>", "").split(".")
        reached.update((rel, ".".join(parts[:i])) for i in range(1, len(parts) + 1))
    out: list[str] = []
    for rel, qualname in definitions():
        name = f"{rel}:{qualname}"
        key = (rel, qualname.replace(".<locals>", ""))
        if key not in reached and not any(name.startswith(u + ".") for u in out):
            out.append(name)
    return out

# ----------------------------------------------------------------- run set


def run_set(work: pathlib.Path) -> list[list[str]]:
    """The commands whose reach is the study's: every CLI subcommand,
    every example, the figure benchmarks and the benchmark's smoke."""
    py, data, ckpt = sys.executable, str(work / "service"), str(work / "ckpt")
    cli = [py, "-m", "repro"]
    return [
        [*cli, "table1", "--preset", "tiny"],
        [*cli, "scaling", "--samples", "600", "--block-rows", "150", "--nodes", "1", "2"],
        [*cli, "graphs"],
        [*cli, "faults"],
        [*cli, "serve-stream", "--segments", "4", "--rate", "2000"],
        [*cli, "submit", "--data-dir", data, "repro.service.demo:add", "40", "2"],
        [*cli, "serve", "--data-dir", data, "--workers", "1", "--until-idle"],
        [*cli, "queue", "status", "--data-dir", data],
        [*cli, "trace", "summarize", "--service", data],
        [*cli, "trace", "chrome", "--service", data, "--output", str(work / "c.json")],
        [*cli, "logs", data],
        [*cli, "checkpoint", "inspect", "--dir", ckpt],
        *([py, str(p)] for p in sorted((ROOT / "examples").glob("*.py"))),
        [py, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable", "benchmarks"],
        [py, "bench/run.py", "--smoke"],
    ]


def record(work: pathlib.Path) -> set[tuple[str, str]]:
    """Run the run set under the recorder; return what it entered."""
    out, site = work / "out", work / "site"
    for d in (out, site, work / "ckpt"):
        d.mkdir()
    (site / "sitecustomize.py").write_text(
        "import importlib.util, os\n"
        f"spec = importlib.util.spec_from_file_location('_reach', {str(__file__)!r})\n"
        "module = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(module)\n"
        "module.start(os.environ['REACH_OUT'])\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(site), str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["REACH_OUT"] = str(out)
    results = ROOT / "benchmarks" / "results"
    shutil.copytree(results, work / "results")
    try:
        for cmd in run_set(work):
            print("reach:", " ".join(cmd[1:]), flush=True)
            subprocess.run(cmd, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
    finally:
        shutil.rmtree(results)
        shutil.copytree(work / "results", results)
    seen: set[tuple[str, str]] = set()
    for dump in out.glob("*.json"):
        seen.update((rel, q) for rel, q in json.loads(dump.read_text()))
    return seen


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        missing = unreached(record(pathlib.Path(tmp)))
    by_package: dict[str, int] = {}
    for name in missing:
        path = name.split(":")[0]
        package = path.split("/")[0] if "/" in path else "(top)"
        by_package[package] = by_package.get(package, 0) + 1
    print(f"unreached definitions: {len(missing)} "
          f"({', '.join(f'{p} {n}' for p, n in sorted(by_package.items()))})")
    open_ = [n for n in missing if not kept(n) and not kept(n, HAND_CHECKED)]
    print(f"kept (DESIGN.md §20): {sum(kept(n) for n in missing)}, "
          f"checked by hand: {sum(kept(n, HAND_CHECKED) and not kept(n) for n in missing)}")
    for name in open_:
        print(f"unreached and not kept: {name}")
    return 1 if open_ else 0


if __name__ == "__main__":
    raise SystemExit(main())
