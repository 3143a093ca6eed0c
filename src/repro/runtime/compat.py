"""PyCOMPSs-compatible API facade.

Paper snippets written against the PyCOMPSs binding run verbatim when
they import the synchronisation primitives from here::

    from repro.runtime import task
    from repro.runtime.compat import compss_wait_on, compss_barrier

    @task(returns=1)
    def increment(v):
        return v + 1

    value = compss_wait_on(increment(1))
    compss_barrier()

Only the programming-model surface is mirrored — ``compss_wait_on``,
``compss_barrier``, ``compss_open`` and the delete helpers.  Decorator
compatibility comes from :func:`repro.runtime.task` itself, which
accepts the COMPSs-style ``returns=`` / direction keywords.

``compss_wait_on`` and ``compss_delete_object`` are also the
data-plane funnels of the old implicit-value API: values living in the
shared-memory object store (:mod:`repro.runtime.store`) come back as
arrays from ``compss_wait_on``, and ``compss_delete_object`` releases
their store references.
"""

from __future__ import annotations

import os
from typing import Any, IO

from repro.runtime.active import active_runtime
from repro.runtime.future import resolve_futures

__all__ = [
    "compss_wait_on",
    "compss_barrier",
    "compss_open",
    "compss_delete_object",
    "compss_delete_file",
]


def compss_wait_on(*objs: Any) -> Any:
    """Synchronise one or more (possibly nested) future-bearing objects
    into concrete values, PyCOMPSs-style.

    With a single argument the value is returned directly; with several
    a list is returned, matching the PyCOMPSs binding.
    """
    rt = active_runtime()

    def sync(obj: Any) -> Any:
        if rt is None:
            return resolve_futures(obj)
        return rt.wait_on(obj)

    if len(objs) == 1:
        return sync(objs[0])
    return [sync(obj) for obj in objs]


def compss_barrier(no_more_tasks: bool = False) -> None:
    """Block until every task submitted from the calling context is done.

    ``no_more_tasks`` is accepted for signature compatibility; this
    runtime frees task structures eagerly either way.
    """
    del no_more_tasks
    rt = active_runtime()
    if rt is not None:
        rt.barrier()


def compss_open(file_name: Any, mode: str = "r") -> IO:
    """Synchronise a (possibly future) file path and open it.

    Tasks that produce files return their path; ``compss_open`` waits
    for the producing task and hands back a regular file object, like
    the PyCOMPSs runtime does after staging the file in.
    """
    target = compss_wait_on(file_name)
    if not isinstance(target, (str, os.PathLike)):
        raise TypeError(
            f"compss_open expects a file path (or a future of one), got {type(target).__name__}"
        )
    return open(target, mode)


def compss_delete_object(*objs: Any) -> bool:
    """Drop runtime bookkeeping for *objs*.

    Dependency versions are tracked by object identity and garbage
    collected with the objects themselves; what *is* released here are
    shared-memory store references (:class:`~repro.runtime.store.ObjectRef`
    handles, or futures resolved to them) — the last reference frees
    the segment deterministically.  Returns True like the PyCOMPSs
    binding.
    """
    rt = active_runtime()
    if rt is not None:
        for obj in objs:
            rt.release(obj)
    return True


def compss_delete_file(*paths: Any) -> bool:
    """Delete files produced by tasks (after synchronising their
    producing tasks)."""
    ok = True
    for path in paths:
        target = compss_wait_on(path)
        try:
            os.remove(target)
        except OSError:
            ok = False
    return ok
