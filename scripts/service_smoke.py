#!/usr/bin/env python
"""Queue-service smoke test: the chaos scenarios as a CI gate.

Run from the repo root (``make service`` does this)::

    PYTHONPATH=src python scripts/service_smoke.py

Runs the two seeded chaos scenarios from :mod:`repro.service.chaos`
under hang watchdogs:

1. **kill -9 crash recovery** — a real ``repro serve`` subprocess
   works a multi-tenant workload with a worker-kill fault injected,
   is SIGKILLed mid-workload, and a second server on the same data
   directory recovers from the WAL and drains to idle;
2. **lease expiry** — a delivery goes dark, its lease expires, the
   redelivery completes, and the dark delivery deduplicates.

Both verify zero lost tasks and zero duplicate side-effecting
executions from durable state (results table + provenance log).
Exit code 0 means both hold.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.runtime.flightrec import run_under_watchdog
from repro.service.chaos import run_crash_recovery_scenario, run_lease_expiry_scenario

SCENARIOS = [
    ("crash-recovery", run_crash_recovery_scenario, 120.0),
    ("lease-expiry", run_lease_expiry_scenario, 60.0),
]


def main() -> int:
    failures = 0
    for name, scenario, timeout in SCENARIOS:
        workdir = Path(tempfile.mkdtemp(prefix=f"svc-smoke-{name}-"))
        outcome = run_under_watchdog(
            lambda: scenario(workdir, seed=0), timeout, label=name
        )
        if not outcome["ok"]:
            failures += 1
            print(f"chaos {name:<16} seed=0    HUNG/CRASHED: {outcome.get('error')}")
            for problem in outcome.get("problems", []):
                print(f"    - {problem}")
            continue
        report = outcome["value"]
        print(report.line())
        if not report.ok:
            failures += 1
    if failures:
        print(f"service smoke: {failures}/{len(SCENARIOS)} scenarios failed")
        return 1
    print("service smoke: every invariant held (no lost tasks, no duplicates)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
