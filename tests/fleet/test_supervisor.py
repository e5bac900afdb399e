"""Supervised worker fan-out: failure classification, bounded in-parent
retry, partial-result salvage, and the degraded-fleet surface."""

import multiprocessing
import multiprocessing.pool
import pickle
import time

import pytest

from repro.errors import FleetExecutionError
from repro.fleet import runner
from repro.fleet.runner import _classify_failure, run_fleet
from repro.fleet.topology import FleetConfig

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="supervision tests patch the worker entry point via fork",
)


def _small_config(**overrides):
    defaults = dict(hosts=4, shards=8, scale=0.02, epochs=12, ground_shards=0)
    defaults.update(overrides)
    return FleetConfig(**defaults)


_REAL_SIMULATE_GROUP = runner._simulate_group


def _in_worker() -> bool:
    return multiprocessing.current_process().name != "MainProcess"


def _crashes_in_worker_only(payload):
    if _in_worker():
        raise RuntimeError("injected worker crash")
    return _REAL_SIMULATE_GROUP(payload)


def _sleeps_in_worker_only(payload):
    if _in_worker():
        time.sleep(5.0)
    return _REAL_SIMULATE_GROUP(payload)


def _host_zero_group_always_fails(payload):
    _config, plans = payload
    if any(plan.host_id == 0 for plan in plans):
        raise RuntimeError("injected persistent failure")
    return _REAL_SIMULATE_GROUP(payload)


def _always_fails(payload):
    raise RuntimeError("injected total failure")


class TestClassification:
    def test_timeout(self):
        assert _classify_failure(multiprocessing.TimeoutError()) == "timeout"

    def test_pickle(self):
        assert _classify_failure(pickle.PicklingError("x")) == "pickle"
        assert _classify_failure(pickle.UnpicklingError("x")) == "pickle"
        err = multiprocessing.pool.MaybeEncodingError("boom", "task")
        assert _classify_failure(err) == "pickle"

    def test_everything_else_is_a_crash(self):
        assert _classify_failure(RuntimeError("x")) == "crash"
        assert _classify_failure(MemoryError()) == "crash"


class TestRetrySalvage:
    def test_worker_crash_is_retried_inline_with_full_results(
        self, monkeypatch
    ):
        config = _small_config()
        baseline = run_fleet(config, workers=1)
        monkeypatch.setattr(runner, "_simulate_group", _crashes_in_worker_only)
        report = run_fleet(config, workers=2)
        assert [r["status"] for r in report.fan_out] == ["retried", "retried"]
        assert all(r["failure"] == "crash" for r in report.fan_out)
        assert all(r["attempts"] == 2 for r in report.fan_out)
        assert not report.degraded
        # the inline retry re-runs the same pure shard functions, so the
        # salvaged fleet is byte-identical to the healthy one
        assert report.digest == baseline.digest
        assert not report.rollup["conservation"]["missing_shards"]

    def test_group_deadline_miss_classified_as_timeout(self, monkeypatch):
        config = _small_config()
        monkeypatch.setattr(runner, "_simulate_group", _sleeps_in_worker_only)
        report = run_fleet(config, workers=2, group_timeout_s=0.2)
        assert [r["status"] for r in report.fan_out] == ["retried", "retried"]
        assert all(r["failure"] == "timeout" for r in report.fan_out)
        assert not report.degraded

    def test_persistent_group_failure_salvages_partial_fleet(
        self, monkeypatch
    ):
        config = _small_config()
        monkeypatch.setattr(
            runner, "_simulate_group", _host_zero_group_always_fails
        )
        report = run_fleet(config, workers=2)
        statuses = {r["group"]: r["status"] for r in report.fan_out}
        assert statuses[0] == "lost"
        assert statuses[1] == "ok"
        assert report.degraded
        conservation = report.rollup["conservation"]
        assert conservation["missing_shards"]
        assert not conservation["balanced"]
        # surviving shards still merged and reported
        assert len(report.shards) == 4

    def test_degraded_artifact_carries_fan_out_records(self, monkeypatch):
        config = _small_config()
        monkeypatch.setattr(
            runner, "_simulate_group", _host_zero_group_always_fails
        )
        payload = run_fleet(config, workers=2).to_json()
        assert payload["degraded"] is True
        assert [r["status"] for r in payload["fan_out"]] == ["lost", "ok"]
        assert "injected persistent failure" in payload["fan_out"][0]["error"]

    def test_healthy_artifact_omits_fan_out(self):
        payload = run_fleet(_small_config(), workers=2).to_json()
        assert "fan_out" not in payload
        assert "degraded" not in payload

    def test_total_loss_raises_with_outcomes(self, monkeypatch):
        config = _small_config()
        monkeypatch.setattr(runner, "_simulate_group", _always_fails)
        with pytest.raises(FleetExecutionError) as excinfo:
            run_fleet(config, workers=2)
        outcomes = excinfo.value.outcomes
        assert len(outcomes) == 2
        assert all(r["status"] == "lost" for r in outcomes)
        assert all(r["attempts"] == 2 for r in outcomes)
