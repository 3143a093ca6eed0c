"""``blocks_procs``: blocked matmul + KMeans under ``backend="processes"``.

Every task ships 128 KiB+ arguments and results across a process
boundary while the bodies are µs–ms BLAS calls, so ``runtime.backends``,
``runtime.store`` and locality do most of the work.  Only ``backend`` is
pinned (``store="auto"``, locality on): the workload keeps meaning "what
a processes user gets" whatever later PRs decide about the store.
"""

from __future__ import annotations

import statistics

import numpy as np

import repro.dsarray as ds
from harness import BenchRuntime, Rep, Workload, clock, percentile
from repro.ml import KMeans
from repro.runtime import shutdown_workers


class BlocksProcs(Workload):
    name = "blocks_procs"
    op = "task"
    reference = "sequential executor"
    #: 512² float64 in 128² blocks (128 KiB each) + three KMeans
    #: iterations on 4 000×32 in 1 000-row stripes: ~0.15 s, so that a
    #: run holds some fifty repetitions
    FULL = {
        "n": 512, "block": 128, "rows": 4000, "dims": 32, "stripe": 1000,
        "clusters": 8, "iters": 3, "warm_n": 512, "pings": 100, "store_ops": 200,
    }
    SMOKE = {
        "n": 256, "block": 128, "rows": 400, "dims": 8, "stripe": 100,
        "clusters": 4, "iters": 2, "warm_n": 256, "pings": 5, "store_ops": 20,
    }

    def _round(self, run: BenchRuntime, a, b, x) -> tuple[dict, int]:
        """The matmul and the KMeans, each a named part of the
        repetition."""
        sz, rec, rt = self.sz, self.rec, run.rt
        blk = (sz["block"], sz["block"])
        n0 = rt.stats()["n_tasks"]
        with run.part("blocks.matmul"):
            with rec.span("dsarray.create"):
                da, db = ds.array(a, blk), ds.array(b, blk)
            with rec.span("dsarray.matmul"):
                dc = da @ db
            with rec.span("dsarray.collect"):
                c = dc.collect()
        with run.part("blocks.kmeans"):
            with rec.span("dsarray.create"):
                dx = ds.array(x, (sz["stripe"], sz["dims"]))
            with rec.span("dsarray.kmeans"):
                km = KMeans(
                    n_clusters=sz["clusters"], max_iter=sz["iters"], tol=0, random_state=0
                ).fit(dx)
                centers = np.asarray(km.cluster_centers_)
        return {"C": c, "centers": centers}, rt.stats()["n_tasks"] - n0

    def setup(self) -> None:
        sz = self.sz
        rng = np.random.default_rng(self.seed)
        self.a = rng.standard_normal((sz["n"], sz["n"]))
        self.b = rng.standard_normal((sz["n"], sz["n"]))
        self.x = rng.standard_normal((sz["rows"], sz["dims"]))
        # reference: the same arrays on one thread, in this process
        with BenchRuntime(self, executor="sequential") as ref:
            self.want, _ = self._round(ref, self.a, self.b, self.x)
        self.reference_ok = bool(np.allclose(self.want["C"], self.a @ self.b))
        t0 = clock()
        with BenchRuntime(self, backend="processes") as b:
            # two single-block arrays: one dispatch per pool worker
            blk = (sz["block"], sz["block"])
            ds.array(self.a[: 2 * sz["block"], : sz["block"]], blk).collect()
            self.setup_layer["backends.pool_spawn_s"] = clock() - t0
            w = sz["warm_n"]
            self._round(b, self.a[:w, :w], self.b[:w, :w], self.x[: 4 * sz["stripe"]])

    def teardown(self) -> None:
        shutdown_workers()

    def rep(self, **pins) -> Rep:
        pins.setdefault("backend", "processes")
        with BenchRuntime(self, **pins) as b, b.timed():
            got, n_tasks = self._round(b, self.a, self.b, self.x)
        rep = b.result(n_tasks, got)
        if not self.reference_ok:
            rep.problems.append("blocks_procs: reference C is not allclose to A@B")
        if b.layer:
            total = self.rec.total
            rep.layer.update(
                {
                    f"dsarray.{ph}_s": total(f"dsarray.{ph}", self.rec.rep)
                    for ph in ("create", "matmul", "collect", "kmeans")
                }
            )
            blk = self.sz["block"]
            rep.layer["dsarray.blocks"] = 3 * (self.sz["n"] // blk) ** 2 + (
                self.sz["rows"] // self.sz["stripe"]
            )
        return rep

    def _roundtrip_ms(self) -> float:
        """One single-block matmul task through the process backend and
        back: pipe + store round trip of a 128 KiB block."""
        sz = self.sz
        blk = (sz["block"], sz["block"])
        a1, b1 = self.a[: sz["block"], : sz["block"]], self.b[: sz["block"], : sz["block"]]
        want = a1 @ b1
        samples = []
        with BenchRuntime(self, backend="processes") as b:
            da, db = ds.array(a1, blk), ds.array(b1, blk)
            da.collect()
            db.collect()
            for _ in range(sz["pings"]):
                t0 = clock()
                c = (da @ db).collect()
                samples.append((clock() - t0) * 1e3)
                self.wrong += not np.allclose(c, want)
        self.attempted += len(samples)
        self.problems += b.problems
        return percentile(samples, 0.5)

    def extras(self, base_wall, layer):
        out = self.seq_baseline(layer)
        out["backends.roundtrip_ms"] = self._roundtrip_ms()
        out["backends.threads_wall_s"] = self.ablate(backend="threads")
        out["backends.store_off_wall_s"] = self.ablate(store="off")
        # bench-timed Runtime.put / get of one 128 KiB block
        rng = np.random.default_rng(self.seed + 1)
        blocks = [
            rng.standard_normal((self.sz["block"], self.sz["block"]))
            for _ in range(self.sz["store_ops"])
        ]
        puts, gets = [], []
        with BenchRuntime(self, backend="processes") as b:
            refs = []
            for block in blocks:
                t0 = clock()
                refs.append(b.rt.put(block))
                puts.append(clock() - t0)
            for ref, block in zip(refs, blocks):
                t0 = clock()
                view = b.rt.get(ref)
                gets.append(clock() - t0)
                self.wrong += not np.array_equal(view, block)
            self.attempted += len(refs)
        out["store.put_us"] = statistics.median(puts) * 1e6
        out["store.get_us"] = statistics.median(gets) * 1e6
        return out
