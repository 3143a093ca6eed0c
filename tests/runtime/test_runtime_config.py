"""RuntimeConfig: construction, env overrides, Runtime wiring."""

from __future__ import annotations

import dataclasses

import pytest

from repro.runtime import (
    CANCEL_SUCCESSORS,
    CancelledTaskError,
    Runtime,
    RuntimeConfig,
    task,
    wait_on,
)
from repro.runtime import failures


def test_defaults():
    cfg = RuntimeConfig()
    assert cfg.executor == "threads"
    assert cfg.collect_trace is True
    assert [f.name for f in dataclasses.fields(cfg)] == [
        "executor", "backend", "max_workers", "name", "collect_trace", "checkpoint_dir",
        "observability", "store", "fusion", "flightrec_dir",
    ]
    # the failure-policy defaults are constants, not settings
    assert failures.DEFAULT_ON_FAILURE == CANCEL_SUCCESSORS
    assert failures.DEFAULT_MAX_RETRIES == 2
    assert (failures.RETRY_BACKOFF, failures.RETRY_BACKOFF_CAP) == (0.001, 0.25)
    assert failures.JITTER_SEED == 0


def test_validation():
    with pytest.raises(ValueError):
        RuntimeConfig(executor="fibers")
    with pytest.raises(ValueError):
        RuntimeConfig(max_workers=0)
    with pytest.raises(TypeError):
        RuntimeConfig(default_on_failure="IGNORE")  # no longer a setting


def test_store_defaults_and_validation():
    cfg = RuntimeConfig()
    assert cfg.store == "auto"
    assert RuntimeConfig(store="off").store == "off"
    # "on" used to be accepted and behaved as "auto": two values, not three
    for mode in ("maybe", "on"):
        with pytest.raises(ValueError, match="unknown store mode"):
            RuntimeConfig(store=mode)
    with pytest.raises(ValueError, match="unknown store mode"):
        RuntimeConfig.from_env(environ={"REPRO_STORE": "on"})
    # the threshold and the worker cache bound are constants, not settings
    for knob in ("store_capacity_mb", "store_threshold_bytes", "debug_invariants"):
        with pytest.raises(TypeError):
            RuntimeConfig(**{knob: 1})


def test_store_env_overrides():
    env = {
        "REPRO_STORE": "off",
        # read by nothing: the store has no budget and one threshold
        "REPRO_STORE_CAPACITY_MB": "64",
        "REPRO_STORE_THRESHOLD_BYTES": "4096",
        "REPRO_DEBUG_INVARIANTS": "1",
    }
    assert RuntimeConfig.from_env(environ=env) == RuntimeConfig(store="off")


def test_replace_returns_new_config():
    cfg = RuntimeConfig()
    cfg2 = cfg.replace(executor="sequential", max_workers=5)
    assert cfg2.executor == "sequential"
    assert cfg2.max_workers == 5
    assert cfg.executor == "threads"  # original untouched


def test_from_env_overrides():
    env = {
        "REPRO_EXECUTOR": "sequential",
        "REPRO_MAX_WORKERS": "3",
        "REPRO_TRACE": "0",
        # read by nothing: the failure defaults are not settings
        "REPRO_ON_FAILURE": "IGNORE",
        "REPRO_MAX_RETRIES": "7",
    }
    cfg = RuntimeConfig.from_env(environ=env)
    assert cfg == RuntimeConfig(executor="sequential", max_workers=3, collect_trace=False)


def test_from_env_explicit_overrides_beat_env():
    env = {"REPRO_EXECUTOR": "sequential"}
    cfg = RuntimeConfig.from_env(environ=env, executor="threads")
    assert cfg.executor == "threads"


def test_runtime_accepts_config():
    cfg = RuntimeConfig(executor="sequential", name="unit-test")
    with Runtime(config=cfg) as rt:
        assert rt.config is cfg
        assert rt.executor == "sequential"


def test_runtime_keywords_override_config():
    cfg = RuntimeConfig(executor="threads", max_workers=8)
    with Runtime(executor="sequential", config=cfg) as rt:
        assert rt.executor == "sequential"


def test_config_default_failure_policy_applies():
    """A task declaring no policy fails with the default,
    CANCEL_SUCCESSORS: its successor is cancelled, not run."""
    cfg = RuntimeConfig(executor="sequential")

    @task(returns=1)
    def bad():
        raise ValueError("no policy declared")

    @task(returns=1)
    def after(x):
        return x

    with Runtime(config=cfg) as rt:
        with pytest.raises(CancelledTaskError):
            wait_on(after(bad()))
        assert rt.stats()["ignored_failures"] == 0


def test_trace_collection_can_be_disabled():
    cfg = RuntimeConfig(executor="sequential", collect_trace=False)

    @task(returns=1)
    def t(x):
        return x

    with Runtime(config=cfg) as rt:
        wait_on(t(1))
        assert len(rt.trace()) == 0
        assert rt.stats()["trace_enabled"] is False


@pytest.mark.parametrize("executor", ["sequential", "threads"])
def test_table1_runs_on_the_executor_of_the_environment(executor, monkeypatch, capsys):
    """``repro table1`` builds its runtime from ``RuntimeConfig.from_env``
    and overrides no executor, so ``REPRO_EXECUTOR`` reaches it."""
    import types

    import repro.workflows
    from repro.cli import main
    from repro.runtime import active_runtime
    from repro.workflows import af_pipeline

    class Stop(Exception):
        pass

    seen = []

    def study(*args, **kwargs):
        seen.append(active_runtime().executor)
        raise Stop

    monkeypatch.setenv("REPRO_EXECUTOR", executor)
    monkeypatch.setattr(repro.workflows, "run_study", study)
    monkeypatch.setattr(
        af_pipeline, "prepare_dataset", lambda cfg: types.SimpleNamespace(class_counts=dict)
    )
    with pytest.raises(Stop):
        main(["table1", "--preset", "tiny", "--skip-cnn"])
    assert seen == [executor]
