"""Watchdog and conservation-ledger tests."""

import pytest

from repro.closures.log import ClosureLog
from repro.errors import ConfigurationError
from repro.obs import Observability
from repro.validation.watchdog import (
    ValidationLedger,
    ValidationWatchdog,
    WatchdogConfig,
)


def make_log(seq):
    return ClosureLog(seq=seq, closure_name=f"op{seq}", caller="t")


class TestWatchdogConfig:
    def test_defaults_valid(self):
        WatchdogConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline": 0.0},
            {"max_retries": -1},
            {"backoff_base": -1e-6},
            {"backoff_base": 2e-6, "backoff_cap": 1e-6},
            {"offender_threshold": 0},
            {"deadline": float("nan")},
            {"deadline": float("inf")},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            WatchdogConfig(**kwargs).validate()


class TestWatchdog:
    def test_complete_before_deadline(self):
        wd = ValidationWatchdog(WatchdogConfig(deadline=1.0))
        wd.dispatched(make_log(1), core_id=2, now=0.0)
        assert wd.in_flight == 1
        assert wd.completed(1, now=0.5) is True
        assert wd.in_flight == 0
        assert wd.expired(now=2.0) == []
        assert wd.timeouts_total == 0

    def test_expiry_pops_late_dispatches(self):
        wd = ValidationWatchdog(WatchdogConfig(deadline=1.0))
        wd.dispatched(make_log(1), core_id=2, now=0.0)
        wd.dispatched(make_log(2), core_id=3, now=0.5)
        late = wd.expired(now=1.0)
        assert [d.log.seq for d in late] == [1]
        assert wd.in_flight == 1
        assert wd.timeouts_by_core == {2: 1}

    def test_late_verdict_is_duplicate(self):
        wd = ValidationWatchdog(WatchdogConfig(deadline=1.0))
        wd.dispatched(make_log(1), core_id=2, now=0.0)
        wd.expired(now=5.0)
        # The original core finally answers: discard.
        assert wd.completed(1, now=6.0) is False
        assert wd.duplicates_total == 1

    def test_double_dispatch_rejected(self):
        wd = ValidationWatchdog()
        log = make_log(1)
        wd.dispatched(log, core_id=2, now=0.0)
        with pytest.raises(ConfigurationError):
            wd.dispatched(log, core_id=3, now=0.1)

    def test_backoff_capped_exponential(self):
        config = WatchdogConfig(
            deadline=1.0,
            max_retries=4,
            backoff_base=10e-6,
            backoff_factor=2.0,
            backoff_cap=25e-6,
        )
        wd = ValidationWatchdog(config)
        log = make_log(1)
        delays = []
        now = 0.0
        while True:
            wd.dispatched(log, core_id=2, now=now)
            (dispatch,) = wd.expired(now=now + 2.0)
            delay = wd.plan_redispatch(dispatch, now=now + 2.0)
            if delay is None:
                break
            delays.append(delay)
            now += 2.0 + delay
        # 10us, 20us, then capped at 25us.
        assert delays == pytest.approx([10e-6, 20e-6, 25e-6, 25e-6])
        assert wd.exhausted_total == 1
        assert wd.redispatches_total == 4

    def test_offender_reported_once(self):
        offenders = []
        wd = ValidationWatchdog(
            WatchdogConfig(deadline=1.0, offender_threshold=2),
            on_offender=lambda core, when: offenders.append((core, when)),
        )
        for seq in range(1, 4):
            wd.dispatched(make_log(seq), core_id=7, now=float(seq))
            wd.expired(now=float(seq) + 2.0)
        assert offenders == [(7, 4.0)]

    def test_abandon_returns_stranded(self):
        wd = ValidationWatchdog(WatchdogConfig(deadline=10.0))
        wd.dispatched(make_log(1), core_id=2, now=0.0)
        wd.dispatched(make_log(2), core_id=3, now=0.0)
        stranded = wd.abandon(now=1.0)
        assert sorted(d.log.seq for d in stranded) == [1, 2]
        assert wd.in_flight == 0

    def test_obs_counters(self):
        obs = Observability()
        wd = ValidationWatchdog(WatchdogConfig(deadline=1.0), obs=obs)
        log = make_log(1)
        wd.dispatched(log, core_id=2, now=0.0)
        (dispatch,) = wd.expired(now=2.0)
        assert wd.plan_redispatch(dispatch, now=2.0) is not None
        wd.dispatched(log, core_id=3, now=2.1)
        ((labels, timeout_counter),) = obs.registry.series(
            "orthrus_watchdog_timeouts_total"
        )
        assert labels == {"core": "2"}
        assert timeout_counter.value == 1
        ((_, redispatch_counter),) = obs.registry.series(
            "orthrus_watchdog_redispatches_total"
        )
        assert redispatch_counter.value == 1


class TestValidationLedger:
    def test_conservation_happy_path(self):
        ledger = ValidationLedger()
        for seq in range(4):
            ledger.enqueue(seq)
        ledger.validated(0)
        ledger.skipped(1)
        ledger.dropped(2, "capacity")
        ledger.fallback(3)
        assert ledger.conserved
        summary = ledger.summary()
        assert summary["enqueued"] == 4
        assert summary["validated"] == 1
        assert summary["drop_reasons"] == {"capacity": 1}
        assert summary["outstanding"] == 0

    def test_outstanding_flags_stranded_logs(self):
        ledger = ValidationLedger()
        ledger.enqueue(1)
        ledger.enqueue(2)
        ledger.validated(1)
        assert not ledger.conserved
        assert ledger.outstanding == 1

    def test_redispatch_does_not_double_count(self):
        ledger = ValidationLedger()
        ledger.enqueue(1)
        ledger.enqueue(1)  # re-dispatch of the same seq
        assert ledger.enqueued == 1

    def test_second_terminal_state_rejected(self):
        ledger = ValidationLedger()
        ledger.enqueue(1)
        ledger.validated(1)
        with pytest.raises(ConfigurationError):
            ledger.dropped(1, "capacity")
