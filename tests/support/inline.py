"""Warming a task's body estimate, so that the submit rule — a task too
small to hand off runs on the thread that submits it
(``engine.INLINE_BELOW_S``) — applies to it."""

from __future__ import annotations

from repro.runtime import Runtime, engine


def warm(fn, *args, tries: int = 500) -> float:
    """Complete calls of the ``@task`` *fn* on a sequential runtime
    until its spec's ``body_estimate`` is below the inline threshold;
    returns the estimate.  A spec that never gets there fails the
    calling test rather than silently testing the dispatch path."""
    spec = fn.spec
    with Runtime(executor="sequential"):
        for _ in range(tries):
            est = spec.body_estimate
            if est is not None and est < engine.INLINE_BELOW_S:
                return est
            fn(*args)
    raise AssertionError(f"{spec.name}: body estimate {spec.body_estimate!r} never fell "
                         f"below {engine.INLINE_BELOW_S!r} s")
