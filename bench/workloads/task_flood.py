"""``task_flood``: independent no-op tasks through per-call ``submit``.

No data, empty bodies: the engine's intake (normalise, dependency scan,
signature, heap push) and dispatch are the whole cost.  The closed form
is the identity, so every returned value is checked.
"""

from __future__ import annotations

from harness import BenchRuntime, Rep, Workload, clock, mismatches, percentile
from repro.runtime import task, wait_on


@task(returns=1)
def noop(i):
    return i


class TaskFlood(Workload):
    name = "task_flood"
    op = "task"
    gc_off = True
    #: 1 000 tasks per repetition (~40 ms): short, so that a run holds
    #: hundreds of them, each with its own reading of the host's speed
    FULL = {"tasks": 1000, "pings": 300}
    SMOKE = {"tasks": 400, "pings": 20}

    def setup(self) -> None:
        self.want = list(range(self.sz["tasks"]))
        with BenchRuntime(self):
            wait_on([noop(i) for i in range(self.sz["tasks"])])

    def rep(self, **pins) -> Rep:
        n = self.sz["tasks"]
        with BenchRuntime(self, **pins) as b, b.timed():
            futures = [noop(i) for i in range(n)]
            values = wait_on(futures)
        return b.result(n, values)

    def _roundtrip_us(self) -> float:
        """One task submitted to an idle runtime and waited for: the
        park → notify → dispatch → complete → wake round trip."""
        n = self.sz["pings"]
        samples, values = [], []
        with BenchRuntime(self) as b:
            for i in range(n):
                t0 = clock()
                values.append(wait_on(noop(i)))
                samples.append((clock() - t0) * 1e6)
        self.attempted += n
        self.wrong += mismatches(values, list(range(n)))
        self.problems += b.problems
        return percentile(samples, 0.5)

    def extras(self, base_wall, layer):
        out = self.seq_baseline(layer)
        out["engine.roundtrip_us"] = self._roundtrip_us()
        out["engine.fusion_on_wall_s"] = self.ablate(fusion=True)
        out["obs.metrics_overhead_frac"] = (
            self.ablate(observability="metrics") / base_wall - 1.0
        )
        out["obs.collect_trace_cost_frac"] = (
            base_wall / self.ablate(collect_trace=False) - 1.0
        )
        return out
