"""Tests of the shared-memory object store and the redesigned
data-passing API: refcounted release, concurrent access, crash-safe
cleanup, ref transport on the process backend, and the
``put``/``get``/``submit_many`` runtime surface."""

from __future__ import annotations

import errno
import random
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro.dsarray as ds
from repro.runtime import (
    ObjectRef,
    Runtime,
    RuntimeConfig,
    StoreError,
    TaskExecutionError,
    current_attempt,
    is_ref,
    task,
    wait_on,
)
from repro.runtime.backends import get_worker_pool
from repro.runtime.store import ObjectStore, WorkerStore, _Segment, scan_refs
from tests.support.faults import kill_worker


@task(returns=1)
def _double(block):
    return block * 2.0


@task(returns=1)
def _double_after_a_crash(block):
    """``_double`` whose first attempt crashes the process running it."""
    if current_attempt() == 0:
        kill_worker("_double_after_a_crash")
    return block * 2.0


@task(returns=1)
def _double_plus_one(block):
    return block * 2.0 + 1.0


@task(returns=1)
def _add_blocks(a, b):
    return a + b


@task(returns=1)
def _checksum(block):
    return float(np.asarray(block).sum())


@task(returns=1)
def _kinds(a, b=None):
    return type(a).__name__, type(b).__name__


# ----------------------------------------------------------------------
# refs and scanning
# ----------------------------------------------------------------------
def test_object_ref_identity_and_scan():
    ref = ObjectRef("oid-1", (2, 2), "<f8", 32, segment="seg-1")
    same = ObjectRef("oid-1", (2, 2), "<f8", 32, segment=None)
    other = ObjectRef("oid-2", (2, 2), "<f8", 32)
    assert ref == same and hash(ref) == hash(same)
    assert ref != other
    assert is_ref(ref) and not is_ref("oid-1")
    found = scan_refs({"a": [ref, 1], "b": (other, {"c": ref})})
    assert found.count(ref) == 2 and other in found


# ----------------------------------------------------------------------
# put / get / release
# ----------------------------------------------------------------------
def test_put_get_roundtrip_zero_copy_view():
    store = ObjectStore()
    try:
        src = np.arange(512.0).reshape(16, 32)
        ref = store.put(src)
        assert ref.shape == (16, 32) and ref.nbytes == src.nbytes
        view = store.get(ref)
        assert np.array_equal(view, src)
        assert not view.flags.writeable  # IN immutability
        with pytest.raises(ValueError):
            view[0, 0] = 1.0
        copy = store.get(ref, copy=True)
        copy[0, 0] = -1.0  # independent array
        assert store.get(ref)[0, 0] == 0.0
    finally:
        store.shutdown()


def test_put_is_deduplicated_per_array_object():
    store = ObjectStore()
    try:
        src = np.ones(256)
        ref1, ref2 = store.put(src), store.put(src)
        assert ref1 == ref2
        assert store.stats()["n_objects"] == 1
        assert store.stats()["dedup_hits"] == 1
        # an equal but distinct array is a distinct object
        assert store.put(np.ones(256)) != ref1
    finally:
        store.shutdown()


def test_put_rejects_object_dtype():
    store = ObjectStore()
    try:
        with pytest.raises(StoreError):
            store.put(np.array([object()], dtype=object))
    finally:
        store.shutdown()


def test_refcount_release_is_deterministic():
    store = ObjectStore()
    try:
        ref = store.put(np.zeros(128))
        segment = ref.segment
        assert Path(f"/dev/shm/{segment}").exists()
        assert store.refcount(ref) == 1
        store.incref(ref)
        store.release(ref)
        assert ref in store  # one reference left
        store.release(ref)
        assert ref not in store
        assert not Path(f"/dev/shm/{segment}").exists()  # freed eagerly
        with pytest.raises(StoreError):
            store.get(ref)
        store.release(ref)  # releasing a dead ref is a no-op
    finally:
        store.shutdown()


def test_lease_pins_entry_until_unleased():
    store = ObjectStore()
    try:
        ref = store.put(np.zeros(64))
        segment = store.lease(ref)
        assert segment == ref.segment
        store.release(ref)  # refcount 0, but the lease pins it
        assert ref in store
        store.unlease(ref)  # last pin drops -> freed
        assert ref not in store
    finally:
        store.shutdown()


# ----------------------------------------------------------------------
# concurrency
# ----------------------------------------------------------------------
def _assert_bookkeeping_exact(store: ObjectStore) -> None:
    """The table agrees with ``/dev/shm`` and with the dedup cache."""
    with store._lock:
        entries = dict(store._entries)
        on_shm = {p.name for p in Path("/dev/shm").glob(f"{store.prefix}*")}
        # a live object's segment is never unlinked under it
        assert {e.seg.name for e in entries.values()} <= on_shm
        assert store.stats()["bytes_resident"] == sum(e.nbytes for e in entries.values())
        # no dedup key outlives its entry, and every entry knows its key
        for key, (_, oid) in store._dedup.items():
            assert oid in entries and entries[oid].dedup_key == key


def test_concurrent_put_get_release_threads():
    """Four threads run a randomized put / get / lease / release /
    adopt mix against one store: bytes never diverge, live segments
    stay on ``/dev/shm`` and the dedup cache stays consistent."""
    store = ObjectStore()
    errors: list[BaseException] = []

    def churn(worker: int) -> None:
        try:
            rng = np.random.default_rng(worker)
            ops = random.Random(worker)
            live: list[tuple[ObjectRef, np.ndarray]] = []
            for i in range(60):
                op = ops.choice(("put", "put", "adopt", "get", "lease", "release"))
                if op == "put" or (op != "adopt" and not live):
                    src = rng.standard_normal(256)
                    live.append((store.put(src), src))
                elif op == "adopt":  # a worker-frozen result, by name
                    src = rng.standard_normal(256)
                    name = f"{store.prefix}wt{worker}n{i}"
                    _Segment.create(name, src)
                    live.append((store.adopt(f"{name}-r", name, src.shape, src.dtype.str, src.nbytes), src))
                else:
                    ref, src = live[ops.randrange(len(live))]
                    if op == "get":
                        if not np.array_equal(store.get(ref, copy=True), src):
                            raise AssertionError(f"worker {worker} round {i}: bytes diverged")
                    elif op == "lease":
                        segment = store.lease(ref)
                        assert Path(f"/dev/shm/{segment}").exists()
                        store.unlease(ref)
                    else:
                        live.remove((ref, src))
                        store.release(ref)
                if i % 10 == 0:
                    _assert_bookkeeping_exact(store)
            for ref, src in live:
                if not np.array_equal(store.get(ref, copy=True), src):
                    raise AssertionError(f"worker {worker}: bytes diverged at drain")
                store.release(ref)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=churn, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert store.stats()["n_objects"] == 0  # everything released
        _assert_bookkeeping_exact(store)
        assert store.stats()["bytes_resident"] == 0 and not store._dedup
        assert not list(Path("/dev/shm").glob(f"{store.prefix}*"))
    finally:
        sys.setswitchinterval(interval)
        store.shutdown()


def test_concurrent_get_from_worker_processes(small_threshold):
    """Many tasks reading one stored block from pool workers: every
    read sees the same bytes, and repeat reads hit the worker cache."""
    cfg = RuntimeConfig(backend="processes", max_workers=2)
    with Runtime(config=cfg) as rt:
        src = np.arange(4096.0)
        ref = rt.put(src)
        futs = [_checksum(ref) for _ in range(8)]
        sums = wait_on(futs)
        assert sums == [float(src.sum())] * 8
        stats = rt.stats()["backend_stats"]
        assert stats["store_enabled"]
        assert stats["store_hits"] > 0  # cached re-reads
        assert stats["store_bytes_moved"] <= 2 * src.nbytes  # once per worker


# ----------------------------------------------------------------------
# crash safety
# ----------------------------------------------------------------------
def test_shutdown_sweeps_orphan_segments():
    """A segment created under the store's prefix but never adopted
    (worker crashed mid-freeze) is removed by the shutdown sweep."""
    store = ObjectStore()
    orphan_name = f"{store.prefix}worphan"
    try:
        _Segment.create(orphan_name, bytes(64))
        assert Path(f"/dev/shm/{orphan_name}").exists()
    finally:
        store.shutdown()
    assert not Path(f"/dev/shm/{orphan_name}").exists()
    assert store.stats()["orphans_swept"] == 1


@pytest.mark.parametrize("how", ["release", "shutdown"])
def test_never_read_adopted_result_is_unlinked_unmapped(how):
    """Most worker results are only ever read by other workers: the
    coordinator adopts them as a name, and frees them by name."""
    store = ObjectStore()
    try:
        info = WorkerStore.new_info()
        WorkerStore().freeze(np.arange(1024.0), store.prefix, 1024, info)
        ref = store.adopt(*info["created"][0])
        seg = store._entries[ref.object_id].seg
        assert store.lease(ref) == ref.segment == seg.name  # what dispatch does
        store.unlease(ref)
        assert Path(f"/dev/shm/{seg.name}").exists()
        assert store.stats()["bytes_resident"] == ref.nbytes
        store.release(ref) if how == "release" else store.shutdown()
        assert seg._map is None  # never mapped on this side
        assert not Path(f"/dev/shm/{seg.name}").exists()
        assert store.stats()["bytes_resident"] == 0
    finally:
        store.shutdown()


def test_live_view_survives_release_and_shutdown():
    """Zero-copy views handed out by get() stay readable after the
    object is released and after the whole store shuts down — the store
    detaches instead of unmapping under a live view (regression: this
    used to segfault, because np.ndarray(buffer=...) holds no buffer
    export and SharedMemory.close() unmaps silently)."""
    store = ObjectStore()
    x = np.arange(1024, dtype=np.float64)
    ref = store.put(x)
    view = store.get(ref)
    store.release(ref)
    np.testing.assert_array_equal(view, x)
    store.shutdown()
    np.testing.assert_array_equal(view, x)


def test_shutdown_is_idempotent_and_closes_api():
    store = ObjectStore()
    ref = store.put(np.zeros(32))
    store.shutdown()
    store.shutdown()
    with pytest.raises(StoreError):
        store.put(np.zeros(32))
    with pytest.raises(StoreError):
        store.get(ref)


def test_worker_crash_leaves_no_segments_behind(small_threshold):
    """SIGKILLing a worker mid-run must not leak /dev/shm segments
    once the runtime shuts down."""
    cfg = RuntimeConfig(backend="processes", max_workers=2)
    with Runtime(config=cfg) as rt:
        prefix = rt.store.prefix
        block = np.ones(2048)
        out = wait_on(_double_after_a_crash.opts(max_retries=2)(block))
        assert np.array_equal(out, block * 2.0)
    assert not list(Path("/dev/shm").glob(f"{prefix}*"))


def test_worker_crash_releases_transfer_pins(small_threshold):
    """A store-shipped argument is pinned for the duration of the
    dispatch; when the worker dies mid-task the coordinator must
    release those transfer pins on the failure path, or the entries
    can never be freed.  After the retry completes, zero pins may
    remain."""
    cfg = RuntimeConfig(backend="processes", max_workers=2)
    with Runtime(config=cfg) as rt:
        block = np.ones(2048)
        out = wait_on(_double_after_a_crash.opts(max_retries=2)(block))
        assert np.array_equal(out, block * 2.0)
        stats = rt.store.stats()
        assert rt.stats()["backend_stats"]["worker_crashes"] == 1
        assert stats["n_pinned"] == 0
        assert stats["pinned_bytes"] == 0


def test_sweep_prefix_is_scoped_to_one_store():
    """Two stores sharing /dev/shm: sweeping the prefix of a dead store
    must not touch the live one's segments — concurrent services
    pointed at the same machine stay isolated."""
    from repro.runtime.store import sweep_prefix

    a, b = ObjectStore(), ObjectStore()
    try:
        for i in range(2):
            a.put(np.full(512, float(i + 1)))
        b_refs = [b.put(np.full(512, float(i + 1))) for i in range(2)]
        assert len(list(Path("/dev/shm").glob(f"{a.prefix}*"))) == 2
        assert list(Path("/dev/shm").glob(f"{b.prefix}*"))

        # Simulate store A dying without cleanup, then a cold-start
        # sweep of exactly its prefix.
        assert sweep_prefix(a.prefix) == 2
        assert not list(Path("/dev/shm").glob(f"{a.prefix}*"))
        # B's world is untouched: shm segments and data.
        assert len(list(Path("/dev/shm").glob(f"{b.prefix}*"))) == 2
        for i, ref in enumerate(b_refs):
            assert float(b.get(ref)[0]) == float(i + 1)
    finally:
        b.shutdown()
        a.shutdown()


def test_sweep_prefix_rejects_empty_prefix():
    from repro.runtime.store import sweep_prefix

    with pytest.raises(ValueError):
        sweep_prefix("")


def test_runtime_shutdown_unlinks_all_segments(small_threshold):
    cfg = RuntimeConfig(backend="processes", max_workers=2)
    with Runtime(config=cfg) as rt:
        prefix = rt.store.prefix
        refs = [rt.put(np.full(1024, float(i))) for i in range(4)]
        wait_on([_checksum(r) for r in refs])
        assert list(Path("/dev/shm").glob(f"{prefix}*"))
    assert not list(Path("/dev/shm").glob(f"{prefix}*"))


# ----------------------------------------------------------------------
# ref transport correctness
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["threads", "processes"])
def test_ref_passed_results_bit_identical_to_inline(backend, small_threshold):
    """The same workload computed with arguments passed by reference
    and passed inline produces bit-identical results on both backends."""
    src = np.arange(8192.0).reshape(64, 128) / 3.0

    def run(store_mode: str) -> np.ndarray:
        cfg = RuntimeConfig(backend=backend, max_workers=2, store=store_mode)
        with Runtime(config=cfg) as rt:
            a = rt.put(src) if store_mode == "auto" else src
            doubled = _double(a)
            summed = _add_blocks(doubled, src)
            return np.asarray(rt.get(summed, copy=True))

    with_store = run("auto")
    without = run("off")
    assert with_store.tobytes() == without.tobytes()
    assert with_store.tobytes() == (src * 3.0).tobytes()


def test_large_args_and_results_travel_by_reference(small_threshold):
    cfg = RuntimeConfig(backend="processes", max_workers=1)
    with Runtime(config=cfg) as rt:
        src = np.ones(4096)
        out = wait_on(_double(src))
        assert np.array_equal(out, src * 2.0)
        stats = rt.stats()["backend_stats"]
        assert stats["store_bytes_moved"] > 0
        assert stats["store_bytes_saved"] >= src.nbytes
        # the argument block itself never crossed the pickle pipe
        assert stats["pipe_bytes_sent"] < src.nbytes

    # The paper's dominant communication pattern, a blocked matmul:
    # by-reference transport removes >= 90% of the bytes pickled across
    # the worker pipes and leaves the product bit-identical.
    a = np.random.default_rng(0).normal(size=(256, 256))
    b = np.random.default_rng(1).normal(size=(256, 256))
    product, pipe_bytes = {}, {}
    for mode in ("auto", "off"):
        cfg = RuntimeConfig(backend="processes", max_workers=2, store=mode)
        with Runtime(config=cfg) as rt:
            product[mode] = (ds.array(a, (128, 128)) @ ds.array(b, (128, 128))).collect()
            stats = rt.stats()["backend_stats"]
        pipe_bytes[mode] = stats["pipe_bytes_sent"] + stats["pipe_bytes_recv"]
    assert 1 - pipe_bytes["auto"] / pipe_bytes["off"] >= 0.90, pipe_bytes
    assert np.array_equal(product["auto"], product["off"])


def test_a_by_ref_chain_hits_the_worker_cache(small_threshold):
    """Each link of a dependent by-reference chain lands on the worker
    that froze its input: the pool picks the worker released last, and
    a worker is released before its result is published.  Only the
    first link's input is mapped fresh; every later link is a cache hit."""
    pool = get_worker_pool()
    warm = [pool.acquire(), pool.acquire()]  # two idle workers to pick from
    for worker in warm:
        pool.release(worker)
    n, first = 6, np.zeros(512)
    with Runtime(config=RuntimeConfig(backend="processes", max_workers=2)) as rt:
        link = first
        for _ in range(n):
            link = _double_plus_one(link)
        out = wait_on(link)
        stats = rt.stats()["backend_stats"]
    assert out.tobytes() == np.full(512, 2.0**n - 1).tobytes()
    assert stats["dispatched"] == n and stats["inline"] == 0
    assert stats["store_hits"] == n - 1 and stats["store_misses"] == 1
    assert stats["store_bytes_moved"] == first.nbytes


def test_small_values_stay_inline():
    cfg = RuntimeConfig(backend="processes", max_workers=1)
    with Runtime(config=cfg) as rt:
        out = wait_on(_double(np.ones(16)))  # far below the threshold
        assert np.array_equal(out, np.full(16, 2.0))
        assert rt.stats()["backend_stats"]["store_bytes_moved"] == 0


@pytest.mark.parametrize("backend", ["threads", "processes"])
def test_released_ref_argument_fails_alike_on_both_backends(backend, small_threshold):
    """A released ref among the arguments is the same ``StoreError`` on
    both backends.  Under processes it used to fail only once the
    positional block was already frozen: the call went out with refs
    the worker was never told to thaw, and the body saw ``ObjectRef``s."""
    with Runtime(config=RuntimeConfig(backend=backend, max_workers=1)) as rt:
        live, dead = rt.put(np.zeros(4096)), rt.put(np.ones(4096))
        rt.release(dead)
        assert wait_on(_kinds(np.ones(4096), b=live)) == ("ndarray", "ndarray")
        with pytest.raises(TaskExecutionError) as failed:
            wait_on(_kinds(np.ones(4096), b=dead))
        assert isinstance(failed.value.__cause__, StoreError)
        assert "unknown or released object" in str(failed.value.__cause__)


def test_full_shm_runs_the_call_inline(monkeypatch, small_threshold):
    """No room in ``/dev/shm`` for an argument: the call runs inline on
    the caller's own arrays instead of failing the task."""

    def no_space(cls, name, data):
        raise OSError(errno.ENOSPC, "No space left on device", name)

    with Runtime(config=RuntimeConfig(backend="processes", max_workers=1)) as rt:
        assert np.array_equal(wait_on(_double(np.ones(4096))), np.full(4096, 2.0))
        inline = rt.stats()["backend_stats"]["inline"]
        monkeypatch.setattr(_Segment, "create", classmethod(no_space))
        assert np.array_equal(wait_on(_double(np.ones(4096))), np.full(4096, 2.0))
        assert rt.stats()["backend_stats"]["inline"] == inline + 1


def test_store_off_disables_ref_transport(small_threshold):
    cfg = RuntimeConfig(backend="processes", max_workers=1, store="off")
    with Runtime(config=cfg) as rt:
        out = wait_on(_double(np.ones(4096)))
        assert np.array_equal(out, np.full(4096, 2.0))
        stats = rt.stats()["backend_stats"]
        assert not stats["store_enabled"]
        assert stats["pipe_bytes_sent"] > 4096 * 8  # block went inline


# ----------------------------------------------------------------------
# the Runtime surface: put / get / release / submit_many
# ----------------------------------------------------------------------
def test_runtime_put_get_release():
    with Runtime(config=RuntimeConfig(backend="threads")) as rt:
        src = np.arange(64.0)
        ref = rt.put(src)
        assert is_ref(ref)
        assert np.array_equal(rt.get(ref), src)
        got = rt.get({"x": [ref]}, copy=True)  # derefs inside containers
        assert np.array_equal(got["x"][0], src)
        assert rt.release(ref) == 1
        assert rt.release(ref) == 1  # idempotent: ref already dead
        assert rt.store.stats()["n_objects"] == 0


def test_wait_on_derefs_task_results(small_threshold):
    cfg = RuntimeConfig(backend="processes", max_workers=1)
    with Runtime(config=cfg):
        out = wait_on(_double(np.ones(4096)))
        assert isinstance(out, np.ndarray)  # a value, not a ref
        assert np.array_equal(out, np.full(4096, 2.0))


def test_submit_many_returns_futures_in_order():
    with Runtime(config=RuntimeConfig(backend="threads", max_workers=2)) as rt:
        calls = [_checksum.defer(np.full(8, float(i))) for i in range(10)]
        futs = rt.submit_many(calls)
        assert wait_on(futs) == [8.0 * i for i in range(10)]


def test_submit_many_accepts_tuples_and_opts_defer():
    with Runtime(config=RuntimeConfig(backend="threads", max_workers=2)) as rt:
        futs = rt.submit_many(
            [
                (_add_blocks, (1.0, 2.0)),
                (_add_blocks, (3.0,), {"b": 4.0}),
                _checksum.opts(label="tagged").defer(np.ones(4)),
            ]
        )
        assert wait_on(futs) == [3.0, 7.0, 4.0]
        record = next(iter(rt.trace().records(name="_checksum")))
        assert record.label == "tagged"


def test_submit_many_rejects_non_calls():
    with Runtime(config=RuntimeConfig(backend="threads")) as rt:
        with pytest.raises(TypeError):
            rt.submit_many([42])
        assert rt.submit_many([]) == []


def test_submit_many_results_chain_into_later_tasks():
    with Runtime(config=RuntimeConfig(backend="threads", max_workers=2)) as rt:
        [f1, f2] = rt.submit_many(
            [_add_blocks.defer(1.0, 2.0), _add_blocks.defer(10.0, 20.0)]
        )
        total = _add_blocks(f1, f2)
        assert rt.get(total) == 33.0


# ----------------------------------------------------------------------
# worker-side store
# ----------------------------------------------------------------------
def test_worker_store_thaw_freeze_roundtrip():
    store = ObjectStore()
    try:
        ws = WorkerStore()
        src = np.arange(1024.0)
        ref = store.put(src)
        info = WorkerStore.new_info()
        thawed = ws.thaw([ref, 5], info)
        assert np.array_equal(thawed[0], src)
        assert thawed[1] == 5
        assert not thawed[0].flags.writeable
        assert info["moved_bytes"] == src.nbytes
        assert (info["attached"], info["hits"]) == (1, 0)
        assert ws.cached_segments() == [ref.segment]
        # second thaw of the same segment is a cache hit
        info2 = WorkerStore.new_info()
        ws.thaw(ref, info2)
        assert (info2["attached"], info2["hits"]) == (0, 1)
        assert info2["moved_bytes"] == 0 and info2["hit_bytes"] == src.nbytes

        out, created_info = np.asarray(thawed[0]) * 2, WorkerStore.new_info()
        frozen = ws.freeze(out, store.prefix, 1024, created_info)
        assert is_ref(frozen)
        adopted = store.adopt(*created_info["created"][0])
        assert np.array_equal(store.get(adopted), out)
        # the frozen result stays cached, most recently used last
        assert ws.cached_segments() == [ref.segment, frozen.segment]
    finally:
        store.shutdown()


def test_worker_store_prune_bounds_cache():
    store, other = ObjectStore(), ObjectStore()
    try:
        ws = WorkerStore()

        def cached_bytes_exact() -> bool:
            return ws._cached_bytes == sum(seg.size for seg in ws._cache.values())

        refs = [store.put(np.full(512, float(i))) for i in range(6)]
        info = WorkerStore.new_info()
        for ref in refs:
            ws.thaw(ref, info)
        ws.thaw(refs[0], info)  # a hit must not count the segment twice
        assert (info["attached"], info["hits"]) == (6, 1)
        frozen = ws.freeze(np.ones(512), store.prefix, 1024, info)
        kept = ws.freeze(np.ones(512), other.prefix, 1024, info)
        assert cached_bytes_exact() and ws._cached_bytes == 8 * 512 * 8
        ws.prune(4 * 512 * 8)
        # trimmed to the byte budget, least recently used first
        assert ws.cached_segments() == [
            refs[5].segment, refs[0].segment, frozen.segment, kept.segment
        ]
        assert cached_bytes_exact() and ws._cached_bytes == 4 * 512 * 8
        info2 = WorkerStore.new_info()
        ws.thaw(refs[1], info2)  # evicted entry re-attaches
        assert info2["moved_bytes"] == 512 * 8 and info2["attached"] == 1
        # a store shut down: its segments go, another store's stay
        ws.forget(store.prefix)
        assert ws.cached_segments() == [kept.segment]
        assert cached_bytes_exact()
        ws.forget(other.prefix)
        assert ws._cached_bytes == 0 and not ws._cache
    finally:
        store.shutdown()
        other.shutdown()


def test_worker_store_thaw_of_vanished_segment_leaves_cache_clean():
    store = ObjectStore()
    try:
        ws = WorkerStore()
        ref = store.put(np.zeros(512))
        store.release(ref)  # unlinked before the worker ever mapped it
        with pytest.raises(FileNotFoundError):
            ws.thaw(ref, WorkerStore.new_info())
        assert not ws._cache and ws._cached_bytes == 0
    finally:
        store.shutdown()


# ----------------------------------------------------------------------
# no resource tracker, no leftovers
# ----------------------------------------------------------------------
_QUIET_RUN = """
import os
import numpy as np
import repro.dsarray as ds
import repro.runtime.store
from repro.runtime import Runtime, RuntimeConfig, shutdown_workers

repro.runtime.store.THRESHOLD_BYTES = 1024  # 32x32 blocks go by reference
rng = np.random.default_rng(0)
a, b = rng.standard_normal((192, 192)), rng.standard_normal((192, 192))
cfg = RuntimeConfig(backend="processes", max_workers=2)
with Runtime(config=cfg) as rt:
    c = (ds.array(a, (32, 32)) @ ds.array(b, (32, 32))).collect()
    stats = rt.stats()["backend_stats"]
    assert stats["store_adopted"] > 100 and stats["store_misses"] > 0, stats
assert np.allclose(c, a @ b)
shutdown_workers()
print(os.getpid())
"""


def test_process_backend_run_is_silent_and_leaves_no_segments():
    """A store-on run under ``backend="processes"`` prints nothing on
    stderr — segments never reach the multiprocessing resource tracker,
    which used to answer the create/attach pairs of two processes with
    ``KeyError: '/rs...'`` tracebacks — and leaves ``/dev/shm`` clean."""
    proc = subprocess.run(
        [sys.executable, "-c", _QUIET_RUN], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    pid = int(proc.stdout.split()[-1])
    assert not list(Path("/dev/shm").glob(f"rs{pid:x}g*"))
