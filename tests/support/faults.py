"""Faults for tests: a fault is what a task body does.

A test provokes a failure by writing it into a task body it owns — or,
for a library task, into a callee of that body it monkeypatches — never
through a hook in the engine.  The helpers here key their behaviour on
the attempt (``current_attempt()``) or on the body's arguments, not on a
counter kept in the test process, so a body behaves the same whether it
runs in-process or in a pool worker::

    @task(returns=1, max_retries=2)
    def train(x):
        fail_before(2, "train")      # attempts 0 and 1 fail
        return x * 2

A monkeypatched callee is the exception: the patch exists only in the
test process, so such tests pin a runtime that runs bodies in-process
(an explicit ``RuntimeConfig`` with the default ``threads`` backend).
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import signal
from typing import Callable, NoReturn

from repro.runtime import NodeFailureError, current_attempt


class InjectedFault(RuntimeError):
    """An artificial failure raised by a test's task body."""


def fail_before(attempts: int, what: str = "task") -> None:
    """Raise :class:`InjectedFault` while ``current_attempt() <
    attempts``: the calling body's first *attempts* attempts fail."""
    attempt = current_attempt()
    if attempt < attempts:
        raise InjectedFault(f"injected fault in {what} on attempt {attempt}")


def coin(seed: int, key: object, probability: float) -> bool:
    """A seeded draw for one ``(seed, key, attempt)``: True for a
    *probability* share of keys.  A body that fails when it comes up
    True fails a random-looking but reproducible subset of its calls and
    attempts, whatever process runs it."""
    digest = hashlib.sha256(f"{seed}:{key}:{current_attempt()}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64 < probability


def kill_worker(task_name: str) -> NoReturn:
    """Crash the process running the calling body.

    In a pool worker the process SIGKILLs itself mid-body — the real
    crash path: the coordinator sees the broken pipe and fails the
    attempt with :class:`NodeFailureError`.  Run in-process, where a
    SIGKILL would take the test down, the body raises that same error
    for the coordinator's pid instead."""
    if multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    raise NodeFailureError(os.getpid(), task_name=task_name)


def raise_after(
    n: int, fn: Callable, error: Callable[[], BaseException]
) -> Callable:
    """A stand-in for *fn* (to monkeypatch a callee of a task body):
    the first *n* calls go through, every later one raises ``error()``."""
    calls = 0

    def wrapper(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls > n:
            raise error()
        return fn(*args, **kwargs)

    return wrapper


def flip_last_byte(path: str | os.PathLike) -> None:
    """Corrupt a file in place: invert its last byte (for a checkpoint
    entry, the payload's tail, so its checksum no longer matches)."""
    with open(path, "r+b") as fh:
        fh.seek(-1, 2)
        byte = fh.read(1)
        fh.seek(-1, 2)
        fh.write(bytes([byte[0] ^ 0xFF]))
