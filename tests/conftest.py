"""Shared fixtures.

Most tests that need a runtime use the ``sequential`` executor for
determinism; concurrency-specific tests build their own ``threads``
runtime.

Two hypothesis profiles for the randomized runtime matrix and the
stream windowing property: ``matrix`` is derandomized (the same examples
on every run) and sized for tier-1, ``stress`` draws fresh, many more
and longer examples — ``pytest --hypothesis-profile=stress
tests/runtime/test_stress.py`` runs the matrix at depth (``make
stress``).  Those tests use :func:`matrix_settings`; every other
property test keeps hypothesis' own default.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.runtime import Runtime

settings.register_profile(
    "matrix", derandomize=True, deadline=None, max_examples=20, stateful_step_count=20
)
settings.register_profile(
    "stress", database=None, deadline=None, max_examples=300, stateful_step_count=50
)


def matrix_settings() -> settings:
    """The ``matrix`` profile, unless a profile was chosen on the
    command line (``--hypothesis-profile=stress``): then that one."""
    if settings.get_current_profile_name() == "default":
        return settings.get_profile("matrix")
    return settings()


@pytest.fixture()
def seq_runtime():
    with Runtime(executor="sequential") as rt:
        yield rt


@pytest.fixture()
def thread_runtime():
    with Runtime(executor="threads", max_workers=4) as rt:
        yield rt


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
