"""``task_dag``: the same engine as ``task_flood``, dependent shapes.

Three shapes in one repetition: interleaved chains (each edge released
by one completion), a pairwise reduction tree (fan-in), and a map-map
through ``submit_many`` (the shape the fusion pass targets).  The cost
is completion → successor release → notify → dispatch, not intake, so
an intake gain that taxes the completion path shows here as a loss.
"""

from __future__ import annotations

from harness import BenchRuntime, Rep, Workload, clock, percentile
from repro.runtime import task, wait_on


@task(returns=1)
def leaf(i):
    return i


@task(returns=1)
def add(a, b):
    return a + b


@task(returns=1)
def inc(a):
    return a + 1


class TaskDag(Workload):
    name = "task_dag"
    op = "task"
    gc_off = True
    #: 8 + 8*40 + (128 + 127) + 40*4 = 743 tasks (~30 ms)
    FULL = {
        "chains": 8, "chain_len": 40, "leaves": 128,
        "map_width": 40, "map_depth": 4, "lat_chains": 30, "lat_len": 200,
    }
    SMOKE = {
        "chains": 4, "chain_len": 20, "leaves": 64,
        "map_width": 20, "map_depth": 3, "lat_chains": 3, "lat_len": 10,
    }

    def _graph(self, rt, sz) -> dict:
        heads = [leaf(c) for c in range(sz["chains"])]
        for _ in range(sz["chain_len"]):
            # interleaved: one edge of every chain per sweep
            heads = [add(h, 1) for h in heads]
        level = [leaf(i) for i in range(sz["leaves"])]
        while len(level) > 1:
            level = [add(level[i], level[i + 1]) for i in range(0, len(level), 2)]
        stage = rt.submit_many([leaf.defer(i) for i in range(sz["map_width"])])
        for _ in range(sz["map_depth"] - 1):
            stage = rt.submit_many([inc.defer(f) for f in stage])
        return wait_on({"chains": heads, "tree": level[0], "map": stage})

    def setup(self) -> None:
        sz = self.sz
        self.want = {
            "chains": [c + sz["chain_len"] for c in range(sz["chains"])],
            "tree": sum(range(sz["leaves"])),
            "map": [i + sz["map_depth"] - 1 for i in range(sz["map_width"])],
        }
        self.n_tasks = (
            sz["chains"] * (1 + sz["chain_len"])
            + 2 * sz["leaves"] - 1
            + sz["map_width"] * sz["map_depth"]
        )
        with BenchRuntime(self) as b:
            self._graph(b.rt, sz)

    def rep(self, **pins) -> Rep:
        with BenchRuntime(self, **pins) as b, b.timed():
            got = self._graph(b.rt, self.sz)
        return b.result(self.n_tasks, got)

    def _edge_us(self) -> float:
        """Time per edge of one dependent chain on an otherwise idle
        runtime: a completion releasing exactly one successor."""
        n, length = self.sz["lat_chains"], self.sz["lat_len"]
        samples = []
        with BenchRuntime(self) as b:
            for c in range(n):
                t0 = clock()
                head = leaf(c)
                for _ in range(length):
                    head = add(head, 1)
                value = wait_on(head)
                samples.append((clock() - t0) * 1e6 / (length + 1))
                self.wrong += value != c + length
        self.attempted += n * (length + 1)
        self.problems += b.problems
        return percentile(samples, 0.5)

    def extras(self, base_wall, layer):
        out = self.seq_baseline(layer)
        out["engine.edge_us"] = self._edge_us()
        out["engine.fusion_on_wall_s"] = self.ablate(fusion=True)
        return out
