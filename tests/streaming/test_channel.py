"""Stream channel semantics: credits, blocking, EOS, poison."""

from __future__ import annotations

import threading
import time

import pytest

from repro.runtime import Runtime
from repro.runtime.config import RuntimeConfig
from repro.runtime.exceptions import WorkflowAbortedError
from repro.streaming import EOS, Record, Stream, StreamClosed


def test_put_get_fifo_and_accounting():
    s = Stream(capacity=8, name="t")
    for i in range(5):
        s.put(i)
    assert s.depth() == 5
    assert s.credits() == 3
    got = [s.get() for _ in range(5)]
    assert [r.value for r in got] == [0, 1, 2, 3, 4]
    assert s.credits() == 8
    assert s.depth() == 0
    st = s.stats()
    assert st["puts"] == 5 and st["gets"] == 5 and st["high_water"] == 5


def test_capacity_blocks_producer_until_consumed():
    s = Stream(capacity=2, name="t")
    s.put(1)
    s.put(2)
    done = threading.Event()

    def producer():
        s.put(3)  # must block until a get frees a credit
        done.set()

    t = threading.Thread(target=producer, daemon=True)
    t.start()
    time.sleep(0.05)
    assert not done.is_set()
    assert s.get().value == 1
    assert done.wait(2.0)
    t.join(2.0)
    assert [s.get().value for _ in range(2)] == [2, 3]
    assert s.stats()["put_waits"] >= 1


def test_close_drains_then_eos_and_rejects_puts():
    s = Stream(capacity=4, name="t")
    s.put(1)
    s.put(2)
    s.close()
    assert s.get().value == 1
    assert s.get().value == 2
    assert s.get() is EOS
    assert s.get() is EOS  # idempotent
    with pytest.raises(StreamClosed):
        s.put(3)


def test_iter_yields_records_until_eos():
    s = Stream(capacity=8, name="t")
    s.put(1)
    s.put_item(Record(5, key="k"))
    s.put(2)
    s.close()
    assert [(r.value, r.key) for r in s] == [(1, None), (5, "k"), (2, None)]


def test_poison_drops_restores_credits_and_raises_everywhere():
    s = Stream(capacity=4, name="t")
    s.put(1)
    s.put(2)
    err = RuntimeError("boom")
    dropped = s.poison(err)
    assert dropped == 2
    assert s.credits() == 4
    assert s.depth() == 0
    with pytest.raises(RuntimeError, match="boom"):
        s.get()
    with pytest.raises(RuntimeError, match="boom"):
        s.put(3)
    # first error wins
    s.poison(ValueError("later"))
    with pytest.raises(RuntimeError, match="boom"):
        s.get()


def test_poison_wakes_blocked_consumer():
    s = Stream(capacity=2, name="t")
    caught: list = []

    def consumer():
        try:
            s.get()
        except RuntimeError as exc:
            caught.append(exc)

    t = threading.Thread(target=consumer, daemon=True)
    t.start()
    time.sleep(0.05)
    s.poison(RuntimeError("boom"))
    t.join(2.0)
    assert not t.is_alive()
    assert caught and str(caught[0]) == "boom"


def test_runtime_abort_interrupts_parked_consumer():
    cfg = RuntimeConfig(executor="threads", max_workers=2)
    rt = Runtime(config=cfg)
    try:
        s = Stream(capacity=2, name="t", runtime=rt)
        caught: list = []

        def consumer():
            try:
                s.get()
            except BaseException as exc:  # noqa: BLE001 - relay to the test
                caught.append(exc)

        t = threading.Thread(target=consumer, daemon=True)
        t.start()
        time.sleep(0.05)
        rt._abort(RuntimeError("workflow died"))
        t.join(2.0)
        assert not t.is_alive()
        assert caught and isinstance(caught[0], WorkflowAbortedError)
    finally:
        rt.shutdown()


def test_record_replace_preserves_metadata():
    r = Record(1, key="k", ingest=3.0)
    r2 = r.replace(10)
    assert (r2.value, r2.key, r2.ingest) == (10, "k", 3.0)


def test_capacity_validation():
    with pytest.raises(ValueError):
        Stream(capacity=0)
