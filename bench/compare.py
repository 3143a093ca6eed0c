"""Compare two benchmark result sets: ``python3 bench/compare.py A.json B.json``.

One row per workload × end-to-end metric with both medians, their
quartiles, the ratio B/A (A is the base), the metric's bound from
``BENCHMARK.json`` and a verdict:

* ``ok``         B is not worse than A by more than the bound;
* ``worse``      it is;
* ``unresolved`` the run-to-run spread (inter-quartile distance over
  the median, of either side) exceeds the bound, so the comparison
  cannot tell.

Exits non-zero on any ``worse`` and on any rise in ``failed_frac``.
A result set is what ``run.py`` writes: with several runs per workload
the quartiles are taken over the runs' values, with one run over that
run's repetitions.
"""

from __future__ import annotations

import json
import statistics
import sys

from harness import manifest


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def centre(runs: list[dict], metric: str) -> tuple[float, float, float, int] | None:
    """(median, q1, q3, n) of *metric* over the runs of one workload."""
    entries = [r["metrics"][metric] for r in runs if metric in r["metrics"]]
    if not entries:
        return None
    if len(entries) == 1:
        # one run: its spread is that of its repetitions
        e = entries[0]
        return e["value"], e.get("q1", e["value"]), e.get("q3", e["value"]), e["n"]
    values = [e["value"] for e in entries]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, len(values)


def failed_frac(runs: list[dict]) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 1.0


def by_workload(result_set: dict) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for run in result_set["runs"]:
        out.setdefault(run["workload"], []).append(run)
    return out


def compare(a: dict, b: dict) -> tuple[list[dict], bool]:
    """Rows of the comparison and whether B passes."""
    spec = manifest()
    rows, passed = [], True
    runs_a, runs_b = by_workload(a), by_workload(b)
    for workload in runs_a:
        if workload not in runs_b:
            continue
        for m in spec["end_to_end"]:
            ca, cb = centre(runs_a[workload], m["name"]), centre(runs_b[workload], m["name"])
            if ca is None or cb is None:
                continue
            (ma, q1a, q3a, na), (mb, q1b, q3b, nb) = ca, cb
            worse_by = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            spread = max((q3a - q1a) / ma, (q3b - q1b) / mb)
            if spread > m["bound"]:
                verdict = "unresolved"
            elif worse_by > m["bound"]:
                verdict = "worse"
            else:
                verdict = "ok"
            passed &= verdict != "worse"
            rows.append(
                {
                    "workload": workload, "metric": m["name"], "unit": m["unit"],
                    "a": ma, "a_q1": q1a, "a_q3": q3a, "a_n": na,
                    "b": mb, "b_q1": q1b, "b_q3": q3b, "b_n": nb,
                    "ratio": mb / ma, "bound": m["bound"], "spread": spread,
                    "verdict": verdict,
                }
            )
        fa, fb = failed_frac(runs_a[workload]), failed_frac(runs_b[workload])
        verdict = "worse" if fb > fa else "ok"
        passed &= verdict == "ok"
        rows.append(
            {
                "workload": workload, "metric": "failed_frac", "unit": "1",
                "a": fa, "b": fb, "bound": 0.0, "verdict": verdict,
            }
        )
    return rows, passed


def render(rows: list[dict]) -> str:
    lines = [
        f"{'workload':<14}{'metric':<16}{'A median [q1, q3]':>34}"
        f"{'B median [q1, q3]':>34}{'B/A':>8}{'bound':>7}  verdict"
    ]
    for r in rows:
        if "ratio" in r:
            a = f"{r['a']:.4g} [{r['a_q1']:.4g}, {r['a_q3']:.4g}] {r['unit']}"
            b = f"{r['b']:.4g} [{r['b_q1']:.4g}, {r['b_q3']:.4g}] {r['unit']}"
            ratio = f"{r['ratio']:.3f}"
        else:
            a, b, ratio = f"{r['a']:.4g}", f"{r['b']:.4g}", "-"
        lines.append(
            f"{r['workload']:<14}{r['metric']:<16}{a:>34}{b:>34}{ratio:>8}"
            f"{r['bound']:>7.2f}  {r['verdict']}"
        )
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows, passed = compare(load(argv[0]), load(argv[1]))
    print(render(rows))
    unresolved = sum(r["verdict"] == "unresolved" for r in rows)
    print(f"\n{'PASS' if passed else 'FAIL'}: {unresolved} unresolved; ratios are B over A")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
