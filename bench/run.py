#!/usr/bin/env python3
"""The repo's one benchmark.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace [0|1]] [--runs K] [--smoke] [--repeat-check]

Runs every workload (or one) in its own fresh subprocess, checks every
output against a reference and prints every metric by name with its
unit.  ``--trace`` adds one traced run per workload for the per-layer
numbers and a self-time breakdown that sums to the traced wall.  With
``--workload`` the last line of standard output is the one-object JSON
result ``BENCHMARK.json`` describes.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import harness
import workloads
from harness import NUMERIC_ENV, OUT, REFS, BenchError, manifest, run_child


# ----------------------------------------------------------------------
# child: one workload, this process
# ----------------------------------------------------------------------
def child_main(args: argparse.Namespace) -> int:
    import spans

    spec = manifest()
    layer_names = [m["name"] for m in spec["per_layer"]]
    cpu = harness.pin_cpu()
    wl = workloads.load(args.workload)(args.seed, args.smoke, spans.Recorder())
    result: dict = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds}
    if args.smoke or not args.trace:
        result.update(harness.measure(wl, args.seconds, args.smoke))
    if args.smoke or args.trace:
        result.update(harness.measure_traced(wl, args.seconds, args.smoke, layer_names))
    result.update(harness.totals(wl))
    if "metrics" in result:
        # own memory after a fixed number of rounds + the worker
        # processes' (joined by totals) peak
        result["metrics"]["peak_rss_mb"] = {
            "value": result.pop("own_rss_mb") + harness.children_rss_mb(), "n": 1,
        }
    result["reference"] = wl.reference
    if args.freeze_refs:
        result["computed_reference"] = wl.computed
    result["env"] = {**harness.environment(), "pinned_cpu": cpu}
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# parent: reporting
# ----------------------------------------------------------------------
def record(result: dict, trace: bool) -> None:
    """Latest result per workload, and one appended history line so a
    trajectory exists."""
    OUT.mkdir(exist_ok=True)
    suffix = ".trace" if trace else ""
    with open(OUT / f"{result['workload']}{suffix}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    line = {
        "t": time.time(), "trace": trace,
        **{k: v for k, v in result.items() if k not in ("breakdown", "computed_reference")},
    }
    with open(OUT / "history.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(line) + "\n")


def contract_line(result: dict, trace: bool, spec: dict) -> str:
    """The one-object result the driver reads."""
    if trace:
        metrics = {
            m["name"]: {"value": result["layer"][m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def print_end_to_end(result: dict, spec: dict) -> None:
    gated = result["workload"] in {w["name"] for w in spec["workloads"]}
    print(
        f"\n== {result['workload']}  seed={result['seed']}  op={result['op']}  "
        f"reference={result['reference']}  gated={'yes' if gated else 'no'}  "
        f"sizes={result['sizes']}"
    )
    for m in spec["end_to_end"]:
        e = result["metrics"][m["name"]]
        extra = (
            f"  q1 {e['q1']:.4g}  q3 {e['q3']:.4g}"
            if "q1" in e else ""
        )
        print(f"  {m['name']:<16}{e['value']:>12.4f} {m['unit']:<5} n={e['n']}{extra}")
    frac = result["failed"] / result["attempted"]
    print(
        f"  {'failed_frac':<16}{frac:>12.4g}       {result['failed']} of "
        f"{result['attempted']}   ({result['elapsed_s']:.1f} s in the workload process)"
    )
    for problem in result["problems"]:
        print(f"  BREACH {problem}")


def print_traced(result: dict, spec: dict) -> None:
    print(
        f"\n== {result['workload']} (traced)  base wall {result['base_wall_s']:.4f} s  "
        f"traced wall {result['traced_wall_s']:.4f} s"
    )
    for m in spec["per_layer"]:
        value = result["layer"][m["name"]]
        if value:
            print(f"  {m['name']:<32}{value:>16.6g} {m['unit']}")
    zero = [m["name"] for m in spec["per_layer"] if not result["layer"][m["name"]]]
    print(f"  ({len(zero)} per-layer metrics are 0 on this workload)")
    bd = result["breakdown"]
    if bd:
        print(f"  -- driver-thread self time of the traced repetition ({bd['wall_s']:.4f} s)")
        for row in bd["rows"]:
            print(
                f"  {row['name']:<36}{row['calls']:>7} calls"
                f"{row['total_s']:>10.4f} s total{row['self_s']:>10.4f} s self"
            )
        covered = sum(row["self_s"] for row in bd["rows"])
        print(
            f"  {'residue (no span covers it)':<36}{bd['residue_s']:>38.4f} s self\n"
            f"  {'sum':<36}{covered + bd['residue_s']:>38.4f} s"
        )
    for problem in result["problems"]:
        print(f"  BREACH {problem}")


def run_set(names: list[str], args: argparse.Namespace, spec: dict, label: str) -> dict:
    """Every named workload, ``--runs`` seeds each (plus one traced run
    with ``--trace``); returns and writes the result set."""
    runs = []
    for name in names:
        for k in range(args.runs):
            result = run_child(name, args.seed + k, args.seconds, trace=False)
            record(result, trace=False)
            print_end_to_end(result, spec)
            runs.append(result)
        if args.trace:
            traced = run_child(name, args.seed, args.seconds, trace=True)
            record(traced, trace=True)
            print_traced(traced, spec)
    result_set = {"label": label, "seed": args.seed, "seconds": args.seconds, "runs": runs}
    with open(OUT / f"{label}.json", "w", encoding="utf-8") as fh:
        json.dump(result_set, fh, indent=1)
    if args.runs > 1:
        print_spreads(runs, spec)
    return result_set


def print_spreads(runs: list[dict], spec: dict) -> None:
    """Inter-quartile distance of the runs' values over their median,
    against each metric's bound."""
    import compare

    print("\n== spread over runs (IQR / median) against the bound")
    for name, group in compare.by_workload({"runs": runs}).items():
        for m in spec["end_to_end"]:
            median, q1, q3, n = compare.centre(group, m["name"])
            spread = (q3 - q1) / median
            flag = ""
            if spread > m["bound"] / 3:
                flag = "  > bound/3" if spread <= m["bound"] else "  > BOUND"
            print(
                f"  {name:<14}{m['name']:<16}median {median:>11.4f} {m['unit']:<5}"
                f"spread {spread:>7.4f}  bound {m['bound']:.2f}  n={n}{flag}"
            )


def schema_ok(line: str, metrics: list[dict], positive: bool) -> bool:
    """One contract line: exactly the four keys, and exactly the named
    metrics, each a number with its unit."""
    doc = json.loads(line)
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        return False
    if set(doc["metrics"]) != {m["name"] for m in metrics}:
        return False
    return all(
        isinstance(doc["metrics"][m["name"]]["value"], (int, float))
        and doc["metrics"][m["name"]]["unit"] == m["unit"]
        and (doc["metrics"][m["name"]]["value"] > 0 or not positive)
        for m in metrics
    )


def smoke(names: list[str], spec: dict) -> int:
    """Every workload at a tiny size: the result schema, every metric
    present, and the oracle tripping on an injected wrong answer."""
    t0 = time.perf_counter()
    bad = []
    for name in names:
        result = run_child(name, 0, 0.5, trace=True, smoke=True)
        checks = {
            "no failed operation": result["failed"] == 0 and result["attempted"] >= 1,
            "end-to-end result has the contract's schema, every metric > 0": schema_ok(
                contract_line(result, False, spec), spec["end_to_end"], positive=True
            ),
            "per-layer result has the contract's schema": schema_ok(
                contract_line(result, True, spec), spec["per_layer"], positive=False
            ),
            "oracle trips on a corrupted value": result["oracle_trips_on_corruption"] > 0,
            "breakdown sums to the traced wall": result["breakdown"] is not None
            and abs(
                sum(r["self_s"] for r in result["breakdown"]["rows"])
                + result["breakdown"]["residue_s"]
                - result["breakdown"]["wall_s"]
            ) < 1e-6,
        }
        status = "ok" if all(checks.values()) else "FAIL"
        print(f"smoke {name:<14}{status}  ({result['elapsed_s']:.1f} s)")
        for check, ok in checks.items():
            if not ok:
                bad.append(f"{name}: {check}")
        bad.extend(f"{name}: {p}" for p in result["problems"])
    for line in bad:
        print(f"  FAILED {line}")
    print(f"smoke: {len(names)} workloads in {time.perf_counter() - t0:.1f} s")
    return 1 if bad else 0


def freeze_refs(args: argparse.Namespace) -> int:
    """Recompute the AF references for the default seed and write them
    to ``bench/refs.json`` (run after a deliberate numerical change)."""
    refs: dict = {}
    for name in ("af_classical", "af_cnn"):
        result = run_child(name, args.seed, 1.0, trace=False, freeze=True)
        refs[name] = {
            "sizes": result["sizes"],
            "seeds": {str(args.seed): result["computed_reference"]},
        }
        refs["env"] = {k: result["env"][k] for k in NUMERIC_ENV}
    with open(REFS, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFS}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measured seconds per run")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    parser.add_argument("--runs", type=int, default=1, help="seeds per workload")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeat-check", action="store_true")
    parser.add_argument("--freeze-refs", action="store_true")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.child:
        return child_main(args)
    try:
        spec = manifest()
    except OSError as exc:
        print(f"bench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    # every workload module runs by default; the manifest lists the
    # ones the driver gates on
    names = list(workloads.NAMES)
    if args.workload:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; one of {names}")
        names = [args.workload]
    try:
        if args.freeze_refs:
            return freeze_refs(args)
        if args.smoke:
            return smoke(names, spec)
        if args.repeat_check:
            import compare

            first = run_set(names, args, spec, "repeat-a")
            second = run_set(names, args, spec, "repeat-b")
            rows, passed = compare.compare(first, second)
            print("\n" + compare.render(rows))
            unresolved = sum(r["verdict"] == "unresolved" for r in rows)
            print(f"\nrepeat-check: {'PASS' if passed else 'FAIL'}, {unresolved} unresolved")
            return 0 if passed and not unresolved else 1
        if args.workload and args.runs == 1:
            # the contract's form: one workload, one run, JSON last
            result = run_child(args.workload, args.seed, args.seconds, bool(args.trace))
            record(result, bool(args.trace))
            (print_traced if args.trace else print_end_to_end)(result, spec)
            print(contract_line(result, bool(args.trace), spec))
            return 0
        result_set = run_set(names, args, spec, "results")
        return 1 if any(r["failed"] for r in result_set["runs"]) else 0
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
