"""Fault-tolerant validation plane: conservation, degradation, recovery.

The acceptance contract: under injected validator faults every sampled
log is eventually validated or *explicitly* accounted (dropped with a
reason or settled by the CRC fallback) — ``logs_in == validated +
skipped + dropped + fallback`` — with zero false-positive detections;
and under 2x overload the degradation ladder reaches CHECKSUM_ONLY,
recovers to NORMAL once load subsides, and does not flap.
"""

from types import SimpleNamespace

import pytest

from repro.faultinject.validator_faults import ValidatorChaosConfig
from repro.harness.pipeline import (
    DriverSession,
    PipelineConfig,
    run_orthrus_server,
    run_vanilla_server,
)
from repro.detection import is_canary_closure
from repro.harness.chaos import fault_tolerant_plane
from repro.harness.scenarios import masstree_scenario, memcached_scenario
from repro.obs.canary import CanaryConfig
from repro.obs.observability import Observability
from repro.obs.timeseries import TimeSeriesConfig
from repro.runtime.degradation import (
    DegradationConfig,
    DegradationLevel,
    FaultToleranceConfig,
)
from repro.runtime.sampling import AlwaysSampler
from repro.validation.watchdog import WatchdogConfig


def _conserves(report) -> bool:
    ledger = report.ledger
    return ledger["enqueued"] == (
        ledger["validated"]
        + ledger["skipped"]
        + ledger["dropped"]
        + ledger["fallback"]
    )


class TestCleanChaosPlane:
    """With no faults armed, the fault-tolerant plane is just Orthrus."""

    @pytest.fixture(scope="class")
    def runs(self):
        scenario = memcached_scenario(n_keys=40)
        vanilla = run_vanilla_server(scenario, 200, PipelineConfig(seed=2))
        chaos = run_orthrus_server(
            scenario,
            200,
            PipelineConfig(seed=2, fault_tolerance=FaultToleranceConfig()),
        )
        return vanilla, chaos

    def test_functional_agreement_with_vanilla(self, runs):
        vanilla, chaos = runs
        assert not chaos.crashed
        assert chaos.responses == vanilla.responses
        assert chaos.digest == vanilla.digest

    def test_conserved_with_no_drops(self, runs):
        _, chaos = runs
        assert chaos.ft.conserved
        assert _conserves(chaos.ft)
        assert chaos.ft.ledger["dropped"] == 0
        assert chaos.ft.ledger["fallback"] == 0

    def test_no_degradation_no_detections(self, runs):
        _, chaos = runs
        assert chaos.ft.peak_level == "normal"
        assert chaos.detections == 0


class TestConservationUnderValidatorFaults:
    """25% of validator cores crash + 25% hang: nothing silently stranded."""

    @pytest.fixture(scope="class")
    def result(self):
        scenario = memcached_scenario(n_keys=40)
        config = PipelineConfig(
            seed=2,
            validation_cores=4,
            sampler=AlwaysSampler(),
            fault_tolerance=FaultToleranceConfig(
                watchdog=WatchdogConfig(deadline=80e-6),
                check_interval=10e-6,
            ),
            validator_faults=ValidatorChaosConfig.parse(
                ["crash=0.25", "hang=0.25"], seed=5
            ),
        )
        return run_orthrus_server(scenario, 300, config)

    def test_run_completes(self, result):
        assert not result.crashed
        assert result.metrics.operations == 300

    def test_every_log_accounted(self, result):
        assert result.ft.conserved
        assert _conserves(result.ft)
        assert result.ft.ledger["outstanding"] == 0

    def test_faults_were_actually_armed(self, result):
        armed = {k: len(v) for k, v in result.ft.faulted_cores.items()}
        assert armed == {"crash": 1, "hang": 1}

    def test_stranded_logs_redispatched(self, result):
        # The crash and the hang each strand a dispatched log; the
        # watchdog must time them out and re-dispatch to healthy cores.
        assert result.ft.timeouts > 0
        assert result.ft.redispatches > 0

    def test_zero_false_positives(self, result):
        assert result.detections == 0

    def test_chaos_digest_present(self, result):
        assert result.ft.chaos_digest is not None

    def test_validator_faults_alone_select_chaos_driver(self):
        # validator_faults without an explicit FaultToleranceConfig must
        # still choose the fault-tolerant policies.
        scenario = memcached_scenario(n_keys=30)
        config = PipelineConfig(
            seed=3,
            validation_cores=4,
            validator_faults=ValidatorChaosConfig.parse(["crash=1"], seed=1),
        )
        result = run_orthrus_server(scenario, 100, config)
        assert result.ft is not None
        assert result.ft.conserved


def _supervisor(validation_cores: int, offender_threshold: int):
    """The fault-tolerant plane's Supervisor over a fresh session
    (validation cores start at core 2), and its Observability."""
    obs = Observability()
    config = PipelineConfig(
        validation_cores=validation_cores, obs=obs,
        fault_tolerance=FaultToleranceConfig(
            watchdog=WatchdogConfig(offender_threshold=offender_threshold)
        ),
    )
    session = DriverSession.open(memcached_scenario(n_keys=8), 4, config)
    return fault_tolerant_plane(session).supervisor, obs


def _miss_deadlines(supervisor, core_id: int, misses: int) -> None:
    """``misses`` dispatches on ``core_id`` that each expire; the watchdog
    reports the core to the supervisor once they reach its threshold."""
    watchdog = supervisor.watchdog
    for seq in range(misses):
        watchdog.dispatched(SimpleNamespace(seq=seq, closure_name="op"), core_id, 0.0)
        watchdog.expired(1.0 + seq)


class TestOffenderQuarantine:
    def test_one_report_below_threshold_keeps_core_in_service(self):
        # One miss reported at threshold 1 scores 1, below the quarantine
        # threshold of 2: the core keeps validating.
        supervisor, obs = _supervisor(validation_cores=2, offender_threshold=1)
        _miss_deadlines(supervisor, 2, 1)
        assert obs.tracer.of_kind("watchdog.offender")
        assert supervisor.quarantine.quarantined == []
        runtime = supervisor.session.runtime
        assert 2 in [c.core_id for c in runtime.scheduler.validation_cores]
        assert not runtime.machine.core(2).quarantined
        assert obs.tracer.of_kind("response.quarantine") == []

    def test_crossing_threshold_quarantines(self):
        supervisor, obs = _supervisor(validation_cores=2, offender_threshold=2)
        _miss_deadlines(supervisor, 2, 2)
        assert supervisor.quarantine.quarantined == [2]
        (event,) = obs.tracer.of_kind("response.quarantine")
        assert (event.ts, event.fields) == (2.0, {"core": 2, "score": 2.0, "faults": 2})
        assert obs.registry.value("orthrus_quarantines_total", {"core": "2"}) == 1
        assert obs.registry.value("orthrus_quarantined_cores") == 1
        assert supervisor.report().quarantined_validators == [2]

    def test_validation_core_pulled_from_validator_pool(self):
        supervisor, _ = _supervisor(validation_cores=2, offender_threshold=2)
        _miss_deadlines(supervisor, 2, 2)
        runtime = supervisor.session.runtime
        assert [c.core_id for c in runtime.scheduler.validation_cores] == [3]
        assert runtime.machine.core(2).quarantined
        assert 2 not in supervisor.session.serving

    def test_last_validation_core_held_in_service(self):
        supervisor, obs = _supervisor(validation_cores=1, offender_threshold=2)
        _miss_deadlines(supervisor, 2, 2)
        runtime = supervisor.session.runtime
        assert supervisor.quarantine.quarantined == []
        assert [c.core_id for c in runtime.scheduler.validation_cores] == [2]
        assert not runtime.machine.core(2).quarantined
        (event,) = obs.tracer.of_kind("response.quarantine_refused")
        assert event.fields == {"core": 2, "score": 2.0}
        assert obs.registry.value("orthrus_quarantined_cores") == 0

    def test_verdict_loss_core_is_quarantined(self):
        # A verdict-loss core does the work, loses every verdict, and eats
        # deadline after deadline — the watchdog must feed it to quarantine.
        scenario = memcached_scenario(n_keys=40)
        config = PipelineConfig(
            seed=2,
            validation_cores=4,
            sampler=AlwaysSampler(),
            fault_tolerance=FaultToleranceConfig(
                watchdog=WatchdogConfig(deadline=80e-6, offender_threshold=2),
                check_interval=10e-6,
            ),
            validator_faults=ValidatorChaosConfig.parse(
                ["verdict-loss=1"], seed=7
            ),
        )
        result = run_orthrus_server(scenario, 300, config)
        assert not result.crashed
        (victim_core,) = result.ft.faulted_cores["verdict-loss"]
        assert victim_core in result.ft.quarantined_validators
        assert result.ft.conserved
        assert result.detections == 0

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_backlog_handoff_counts_pending_bytes_once(self, monkeypatch, seed):
        # Slowed validators miss a 20 µs deadline twice and are quarantined
        # with logs still queued; handing that backlog to the healthy
        # queues must not count its bytes a second time, or
        # memory_in_use() (the Fig-10 budget signal) stays inflated.
        pending_at_finish = []
        finish = DriverSession.finish

        def recording(session):
            pending_at_finish.append(session.pending_bytes[0])
            return finish(session)

        monkeypatch.setattr(DriverSession, "finish", recording)
        config = PipelineConfig(
            seed=seed,
            app_threads=4,
            validation_cores=4,
            sampler=AlwaysSampler(),
            fault_tolerance=FaultToleranceConfig(
                watchdog=WatchdogConfig(deadline=20e-6), check_interval=10e-6
            ),
            validator_faults=ValidatorChaosConfig.parse(
                ["slowdown=0.5"], seed=seed, slowdown_factor=200
            ),
        )
        result = run_orthrus_server(masstree_scenario(), 600, config)
        assert result.ft.quarantined_validators
        assert result.ft.ledger["outstanding"] == 0
        assert pending_at_finish == [0]


class TestTotalValidationPlaneDeath:
    def test_all_validators_crashed_still_conserves(self):
        # Every validator dies: the sweep must settle the backlog via the
        # CRC fallback so producers (and the run) are never deadlocked.
        scenario = memcached_scenario(n_keys=30)
        config = PipelineConfig(
            seed=4,
            validation_cores=2,
            sampler=AlwaysSampler(),
            fault_tolerance=FaultToleranceConfig(check_interval=10e-6),
            validator_faults=ValidatorChaosConfig.parse(["crash=2"], seed=3),
        )
        result = run_orthrus_server(scenario, 150, config)
        assert not result.crashed
        assert result.metrics.operations == 150
        assert result.ft.conserved
        assert result.ft.ledger["fallback"] > 0
        assert result.detections == 0

    def test_block_producer_policy_never_deadlocks(self):
        scenario = memcached_scenario(n_keys=30)
        config = PipelineConfig(
            seed=4,
            app_threads=4,
            validation_cores=1,
            sampler=AlwaysSampler(),
            fault_tolerance=FaultToleranceConfig(
                queue_capacity=8,
                overflow_policy="block-producer",
                degradation=None,
            ),
        )
        result = run_orthrus_server(scenario, 200, config)
        assert not result.crashed
        assert result.metrics.operations == 200
        assert result.ft.conserved
        # Backpressure, not shedding: no capacity evictions happened.
        assert "capacity" not in result.ft.queue_drops
        assert "evicted-oldest" not in result.ft.queue_drops


class TestCanariesOpenNoExposure:
    """A canary is not user data: settled by the CRC fallback or backed off
    for a re-dispatch, it still opens no exposure window (DESIGN §11.3)."""

    @pytest.mark.parametrize("spec, retries, reason", [
        ("hang=2", 3, "checksum-only"),          # total death: the sweep
        ("crash=2", 3, "checksum-only"),
        ("verdict-loss=2", 3, "redispatch"),     # the ticker's backoff
        ("verdict-loss=2", 0, "checksum-only"),  # retry budget exhausted
    ])
    def test_canaries_stay_out_of_the_exposure_ledger(self, spec, retries, reason):
        result = run_orthrus_server(memcached_scenario(), 400, PipelineConfig(
            app_threads=2, validation_cores=2, canary=CanaryConfig(period=50e-6),
            audit=True,
            fault_tolerance=FaultToleranceConfig(
                watchdog=WatchdogConfig(max_retries=retries)
            ),
            validator_faults=ValidatorChaosConfig.parse([spec]),
        ))
        entries = result.audit["exposure"]["entries"]
        assert result.canary["issued"] > 0
        assert [e for e in entries if is_canary_closure(e["subject"])] == []
        # the same path still meters the organic logs it settles
        assert any(e["reason"] == reason for e in entries)
        assert result.ft.conserved


class TestOverloadDegradationLadder:
    """4 app threads vs 1 validator at full sampling: sustained overload."""

    @pytest.fixture(scope="class")
    def result(self):
        scenario = memcached_scenario(n_keys=40)
        config = PipelineConfig(
            seed=3,
            app_threads=4,
            validation_cores=1,
            sampler=AlwaysSampler(),
            obs=Observability(),
            timeseries=TimeSeriesConfig(cadence=10e-6),
            fault_tolerance=FaultToleranceConfig(
                queue_capacity=16,
                overflow_policy="drop-oldest",
                degradation=DegradationConfig(
                    escalate_after=1, recover_after=12
                ),
                check_interval=25e-6,
            ),
        )
        return run_orthrus_server(scenario, 400, config)

    def test_reaches_checksum_only(self, result):
        assert result.ft.peak_level == "checksum-only"

    def test_recovers_to_normal(self, result):
        assert result.ft.terminal_level == "normal"

    def test_no_flapping(self, result):
        # The ladder must walk monotonically up, then monotonically down —
        # hysteresis forbids oscillation within one overload episode.
        levels = [DegradationLevel.NORMAL] + [
            DegradationLevel[t["to"].upper().replace("-", "_")]
            for t in result.ft.degradation["transitions"]
        ]
        peak_at = levels.index(max(levels))
        rising, falling = levels[: peak_at + 1], levels[peak_at:]
        assert rising == sorted(rising)
        assert falling == sorted(falling, reverse=True)

    def test_overload_is_explicitly_accounted(self, result):
        assert result.ft.conserved
        assert _conserves(result.ft)
        assert result.ft.ledger["drop_reasons"].get("evicted-oldest", 0) > 0
        assert result.ft.ledger["fallback"] > 0
        assert result.detections == 0

    def test_transitions_in_trace_events(self, result):
        obs = result.runtime.obs
        moves = [
            (e.fields["frm"], e.fields["to"])
            for e in obs.tracer.events
            if e.kind == "degradation.transition"
        ]
        expected = [
            (t["from"], t["to"])
            for t in result.ft.degradation["transitions"]
        ]
        assert moves == expected
        assert ("degraded", "checksum-only") in moves

    def test_degradation_level_in_timeline(self, result):
        series = result.timeline.series("degradation_level")
        peaks = [bucket.max for bucket in series.buckets]
        assert max(peaks) == float(DegradationLevel.CHECKSUM_ONLY)
        # the tail of the run is back at NORMAL
        assert peaks[-1] == float(DegradationLevel.NORMAL)


class TestChaosDeterminism:
    def _snapshot(self, result):
        m = result.metrics
        return (
            result.responses,
            result.digest,
            m.operations,
            m.duration,
            m.validated,
            m.skipped,
            result.ft.summary(),
        )

    def _config(self):
        return PipelineConfig(
            seed=6,
            validation_cores=4,
            sampler=AlwaysSampler(),
            fault_tolerance=FaultToleranceConfig(
                watchdog=WatchdogConfig(deadline=80e-6),
                check_interval=10e-6,
            ),
            validator_faults=ValidatorChaosConfig.parse(
                ["crash=0.25", "slowdown=0.25"], seed=11
            ),
        )

    def test_chaos_runs_identical(self):
        scenario = memcached_scenario(n_keys=40)
        a = run_orthrus_server(scenario, 250, self._config())
        b = run_orthrus_server(scenario, 250, self._config())
        assert self._snapshot(a) == self._snapshot(b)

    def test_equal_digests_mean_equal_plans(self):
        config_a, config_b = self._config(), self._config()
        assert (
            config_a.validator_faults.digest()
            == config_b.validator_faults.digest()
        )
        assert config_a.validator_faults.plan([4, 5, 6, 7]) == (
            config_b.validator_faults.plan([4, 5, 6, 7])
        )
