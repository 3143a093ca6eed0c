"""``service_jobs``: jobs through the durable queue service.

An in-process ``QueueService`` (two workers) on a temp-dir sqlite file.
(a) *burst*: one ``ServiceClient`` submits every job, then ``wait_all``.
(b) *open loop*: jobs on a seeded **jittered** schedule, each timed from
its due time to ``result()`` returning.  ``repro.service`` spends three
sqlite transactions and two polling loops per job around one trivial
runtime task.  The jitter is required: a fixed-period loop phase-locks
with the 50 ms worker poll and p50 flips 25 ↔ 50 ms between runs.
"""

from __future__ import annotations

import os
import pickle
import queue
import random
import shutil
import statistics
import tempfile
import threading
import time

from harness import (
    CAL_NOMINAL_S, RUNTIME_SPANS, WORKERS, Rep, Section, Workload, clock, mismatches,
    percentile,
)
from repro.service import (
    Database, DurableQueue, QueueService, ServiceClient, ServiceConfig, ServiceTaskError,
)

JOB = "repro.service.demo:add"
RESULT_TIMEOUT_S = 60.0


class Service(Section):
    """A fresh service + client on their own temp directory; leaving
    the block reads the embedded runtime, drains the service and
    removes the directory."""

    def __enter__(self) -> "Service":
        self.dir = tempfile.mkdtemp(prefix="svc-")
        self.svc = QueueService(ServiceConfig(data_dir=self.dir, workers=WORKERS)).start()
        self.client = ServiceClient(self.dir)
        self._patch = self.rec.patch(self.svc.runtime, RUNTIME_SPANS)
        self._patch.__enter__()
        return self

    def check(self, n_jobs: int) -> None:
        """Exactly-once: every job claimed and completed once."""
        c = self.client.counts()["counters"]
        for name in ("submissions", "claims", "completions"):
            if c.get(name, 0) != n_jobs:
                self.problems.append(
                    f"service_jobs: {name}={c.get(name, 0)}, expected {n_jobs}"
                )
        for name in ("redeliveries", "duplicates_discarded", "failures"):
            if c.get(name, 0):
                self.problems.append(f"service_jobs: {name}={c[name]}")
        self.layer["service.redeliveries"] = c.get("redeliveries", 0)
        self.layer["service.db_mb"] = sum(
            os.path.getsize(os.path.join(self.dir, f))
            for f in os.listdir(self.dir) if f.startswith("queue.db")
        ) / 2**20

    def __exit__(self, exc_type, exc, tb) -> bool:
        try:
            self._patch.__exit__(None, None, None)
            if exc_type is None:
                self.read_runtime(self.svc.runtime)
        finally:
            self.client.close()
            if not self.svc.drain():
                self.problems.append("service_jobs: drain timed out")
            shutil.rmtree(self.dir, ignore_errors=True)
        return False


class ServiceJobs(Workload):
    name = "service_jobs"
    op = "job"
    share_a = 0.55
    #: (a) 200 jobs per burst (~0.25 s); (b) 40 jobs/s for 45 % of the run
    FULL = {"jobs": 200, "warm_jobs": 200, "rate": 40.0, "queue_ops": 200}
    SMOKE = {"jobs": 30, "warm_jobs": 5, "rate": 40.0, "queue_ops": 20}

    def _burst(self, s: Service, n: int) -> tuple[list, float]:
        """Submit *n* jobs, read every result; returns the values in
        submission order and the submit rate."""
        with s.timed():
            t0 = clock()
            with self.rec.span("service.client.submit"):
                ids = [s.client.submit(JOB, i, self.seed) for i in range(n)]
            submit_s = clock() - t0
            with self.rec.span("service.client.wait_all"):
                values = s.client.wait_all(ids, timeout=RESULT_TIMEOUT_S)
        return [values.get(i) for i in ids], n / submit_s

    def setup(self) -> None:
        self.want = [i + self.seed for i in range(self.sz["jobs"])]
        with Service(self) as s:
            self._burst(s, self.sz["warm_jobs"])

    def rep(self, **pins) -> Rep:
        # the service builds its own RuntimeConfig: nothing to pin
        n = self.sz["jobs"]
        with Service(self) as s:
            got, submit_rate = self._burst(s, n)
            s.check(n)
        s.layer["service.submit_per_s"] = submit_rate
        return s.result(n, got)

    def latency(self, seconds: float, calibrate) -> list[dict]:
        """(b) open loop: a generator thread submits at each job's due
        time whatever the service does; a second connection reads the
        results in order.  Latency runs from the *due* time, so a stall
        charges every job it delays."""
        rate = self.sz["rate"]
        n = max(5, round(rate * seconds))
        rng = random.Random(self.seed)
        due, t = [], 0.0
        for _ in range(n):
            t += rng.expovariate(rate)
            due.append(t)
        submitted: queue.Queue = queue.Queue()
        late, latencies, values = [], [], []
        with Service(self) as s:
            reader = ServiceClient(s.dir)
            start = clock()

            def read_results() -> None:
                while (item := submitted.get()) is not None:
                    k, task_id = item
                    try:
                        values.append(reader.result(task_id, timeout=RESULT_TIMEOUT_S))
                    except (ServiceTaskError, TimeoutError) as exc:
                        values.append(repr(exc))  # a failed job is a wrong answer
                    latencies.append((clock() - start - due[k]) * 1e3)

            thread = threading.Thread(target=read_results, name="bench-reader")
            thread.start()
            try:
                for k in range(n):
                    delay = due[k] - (clock() - start)
                    if delay > 0:
                        time.sleep(delay)
                    late.append((clock() - start - due[k]) * 1e3)
                    submitted.put((k, s.client.submit(JOB, k, self.seed + 1)))
            finally:
                submitted.put(None)
                thread.join()
                reader.close()
            s.check(n)
        self.attempted += n
        self.wrong += mismatches(values, [k + self.seed + 1 for k in range(n)])
        self.problems += s.problems
        self.latency_layer = {
            "service.roundtrip_p50_ms": percentile(latencies, 0.5),
            "service.roundtrip_p95_ms": percentile(latencies, 0.95),
            "service.gen_late_ms": percentile(late, 0.95),
        }
        # a round trip here is two poll intervals, not work: it does not
        # scale with the host's speed, so it is reported as measured
        return [{"samples_ms": latencies, "cal_s": [CAL_NOMINAL_S, CAL_NOMINAL_S]}]

    def extras(self, base_wall, layer):
        """Bench-timed ``DurableQueue`` operations on an empty queue."""
        n = self.sz["queue_ops"]
        directory = tempfile.mkdtemp(prefix="queue-ops-")
        db = Database(os.path.join(directory, "queue.db"))
        try:
            queue = DurableQueue(db)
            payload = pickle.dumps(((1, 2), {}))
            times: dict[str, list[float]] = {"submit": [], "claim": [], "complete": []}
            for i in range(n):
                t0 = clock()
                queue.submit(
                    name="add", module="repro.service.demo", qualname="add",
                    payload=payload, signature=f"bench-{i}",
                )
                times["submit"].append(clock() - t0)
            claimed = []
            for _ in range(n):
                t0 = clock()
                claimed.append(queue.claim(worker="bench", server="bench", lease_timeout=30.0))
                times["claim"].append(clock() - t0)
            for task in claimed:
                t0 = clock()
                queue.complete(
                    task.id, task.signature, payload=payload, worker="bench",
                    attempt=task.attempt,
                )
                times["complete"].append(clock() - t0)
            self.attempted += 3 * n
            self.wrong += abs(queue.stats()["counters"].get("completions", 0) - n)
        finally:
            db.close()
            shutil.rmtree(directory, ignore_errors=True)
        return {
            f"service.{op}_ms": statistics.median(samples) * 1e3
            for op, samples in times.items()
        }
