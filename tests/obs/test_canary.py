"""Liveness canaries: known-corrupt probes that prove detection works.

Three properties matter: the schedule is deterministic from the seed,
canaries in a healthy run are always detected (and never leak into
organic coverage accounting or the response layer), and a dead
validation plane raises ``canary.missed`` within one deadline — before
the degradation ladder reacts.
"""

import pytest

from repro.detection import DetectionEvent, DetectionReport, is_canary_closure
from repro.errors import ConfigurationError
from repro.faultinject.validator_faults import ValidatorChaosConfig
from repro.harness.chaos import run_chaos_server
from repro.harness.pipeline import PipelineConfig, run_orthrus_server
from repro.harness.scenarios import memcached_scenario
from repro.obs import Observability
from repro.obs.canary import (
    CANARY_CLOSURE,
    CanaryConfig,
    CanaryScheduler,
    LivenessMonitor,
    is_canary_log,
)
from repro.runtime.degradation import FaultToleranceConfig

PERIOD = 50e-6


def run(runner=run_orthrus_server, n_ops=300, obs=None, **kwargs):
    config = PipelineConfig(
        app_threads=2, validation_cores=2, seed=7, obs=obs,
        canary=CanaryConfig(period=PERIOD), **kwargs
    )
    result = runner(memcached_scenario(), n_ops, config)
    assert not result.crashed, result.crash_reason
    return result


class TestScheduler:
    def test_same_seed_same_schedule(self):
        a = CanaryScheduler(CanaryConfig(period=PERIOD), seed=11)
        b = CanaryScheduler(CanaryConfig(period=PERIOD), seed=11)
        logs_a = [a.next_log(i, i * PERIOD) for i in range(8)]
        logs_b = [b.next_log(i, i * PERIOD) for i in range(8)]
        assert [l.args for l in logs_a] == [l.args for l in logs_b]
        assert [l.retval for l in logs_a] == [l.retval for l in logs_b]

    def test_different_seed_different_nonces(self):
        a = CanaryScheduler(CanaryConfig(period=PERIOD), seed=11)
        b = CanaryScheduler(CanaryConfig(period=PERIOD), seed=12)
        assert [a.next_log(i, 0.0).args for i in range(8)] != \
               [b.next_log(i, 0.0).args for i in range(8)]

    def test_minted_logs_are_corrupt_canaries(self):
        sched = CanaryScheduler(CanaryConfig(period=PERIOD), seed=1)
        log = sched.next_log(5, 1e-3)
        assert is_canary_log(log)
        assert is_canary_closure(log.closure_name)
        assert log.core_id == -1
        # the recorded retval never matches the honest re-execution
        assert log.func(*log.args) != log.retval

    def test_config_validation(self):
        for period in (0.0, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                CanaryConfig(period=period)
        with pytest.raises(ConfigurationError):
            CanaryConfig(period=1e-4, deadline=float("nan"))
        # a non-positive deadline means "use the default of 3x the period"
        assert CanaryConfig(period=1e-4).deadline == pytest.approx(3e-4)
        assert CanaryConfig(period=1e-4, deadline=-1.0).deadline == \
            pytest.approx(3e-4)


class TestLivenessMonitor:
    def test_miss_raises_incident_once(self):
        report = DetectionReport()
        config = CanaryConfig(period=PERIOD)
        monitor = LivenessMonitor(config, report)
        sched = CanaryScheduler(config, seed=3)
        log = sched.next_log(1, 0.0)
        monitor.issue(log, 0.0)
        assert monitor.poll(config.deadline / 2) == []
        missed = monitor.poll(config.deadline + PERIOD)
        assert missed == [1]
        assert monitor.missed == 1
        events = [e for e in report.events if e.kind == "canary.missed"]
        assert len(events) == 1
        # polling again never re-raises for the same canary
        assert monitor.poll(config.deadline + 2 * PERIOD) == []

    def test_detection_settles_canary(self):
        report = DetectionReport()
        config = CanaryConfig(period=PERIOD)
        monitor = LivenessMonitor(config, report)
        sched = CanaryScheduler(config, seed=3)
        log = sched.next_log(1, 0.0)
        monitor.issue(log, 0.0)
        report.record(DetectionEvent(
            kind="mismatch", closure=CANARY_CLOSURE, seq=1, time=PERIOD,
        ))
        assert monitor.poll(2 * PERIOD) == []
        assert monitor.detected == 1
        assert monitor.missed == 0

    def test_finalize_forgives_in_window_outstanding(self):
        report = DetectionReport()
        config = CanaryConfig(period=PERIOD)
        monitor = LivenessMonitor(config, report)
        sched = CanaryScheduler(config, seed=3)
        monitor.issue(sched.next_log(1, 0.0), 0.0)
        monitor.finalize(config.deadline / 2)
        assert monitor.missed == 0
        assert monitor.outstanding == 0


class TestHealthyRuns:
    def test_pipeline_detects_every_canary(self):
        result = run()
        assert result.canary["issued"] > 0
        assert result.canary["detected"] == result.canary["issued"]
        assert result.canary["missed"] == 0
        # manufactured mismatches never pollute organic coverage
        assert result.runtime.report.count_organic() == 0

    def test_chaos_driver_detects_every_canary(self):
        result = run(runner=run_chaos_server)
        assert result.canary["issued"] > 0
        assert result.canary["missed"] == 0
        assert result.ft.conserved

    def test_canary_determinism_same_seed_same_outcome(self):
        a = run()
        b = run()
        assert a.canary == b.canary
        assert a.digest == b.digest

    def test_canary_invisible_to_app_state(self):
        with_canary = run()
        config = PipelineConfig(app_threads=2, validation_cores=2, seed=7)
        without = run_orthrus_server(memcached_scenario(), 300, config)
        assert with_canary.digest == without.digest
        assert with_canary.metrics.validated == without.metrics.validated

    def test_counters_distinguish_canary_from_organic(self):
        obs = Observability()
        run(obs=obs)
        issued = obs.registry.value("orthrus_canary_issued_total")
        detected = obs.registry.value("orthrus_canary_detected_total")
        assert issued > 0
        assert detected == issued


class TestDeadPlane:
    def _hang_all(self, **kwargs):
        obs = Observability()
        config = PipelineConfig(
            app_threads=2, validation_cores=2, seed=7, obs=obs,
            canary=CanaryConfig(period=PERIOD),
            validator_faults=ValidatorChaosConfig(specs=(("hang", 2),)),
            fault_tolerance=FaultToleranceConfig(queue_capacity=256),
            **kwargs,
        )
        result = run_chaos_server(memcached_scenario(), 400, config)
        assert not result.crashed, result.crash_reason
        return result

    def test_hung_plane_raises_canary_missed(self):
        result = self._hang_all()
        assert result.canary["missed"] >= 1
        events = [
            e for e in result.runtime.report.events if e.kind == "canary.missed"
        ]
        assert events
        # the alarm fires within one deadline of the canary going overdue
        # (poll cadence is deadline/4, so the slack is bounded)
        deadline = result.canary["deadline"]
        first = result.canary["first_missed_at"]
        assert first is not None
        assert first <= PERIOD + 2 * deadline

    def test_alarm_fires_before_degradation_ladder(self):
        result = self._hang_all()
        first_miss = result.canary["first_missed_at"]
        assert first_miss is not None
        transitions = result.ft.degradation["transitions"]
        if transitions:
            assert first_miss < transitions[0]["time"]
        # zero organic false positives either way
        assert result.runtime.report.count_organic() == 0
