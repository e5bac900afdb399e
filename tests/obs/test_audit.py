"""Validation-plane auditor: static rules, report algebra, drift probes.

The static half must catch every contradiction class from the
nba-stats-scraper post-mortem (ROADMAP item 5) while keeping the stock
configs clean; the report fold must be associative so fleet workers can
merge findings in any grouping; and the DriftMonitor must flag
declared-vs-observed divergence exactly on the state *transition* (one
``audit.violation`` event per violated state, not per probe).
"""

import pytest

from repro.errors import ConfigurationError
from repro.harness.pipeline import PipelineConfig
from repro.obs import Observability
from repro.obs.audit import (
    AUDIT_FORMAT,
    AuditConfig,
    AuditReport,
    DRIFT_RULES,
    DriftMonitor,
    Finding,
    Severity,
    audit_fleet,
    audit_pipeline,
    component_violations,
    findings_to_violations,
    merge_findings,
    pipeline_rules,
    render_audit,
)
from repro.obs.canary import CanaryConfig
from repro.runtime.degradation import FaultToleranceConfig


def _finding(rule="r", severity=Severity.ERROR, subject="s", message="m"):
    return Finding(rule=rule, severity=severity, subject=subject, message=message)


class TestFindingAlgebra:
    def test_round_trip(self):
        finding = Finding(
            rule="watchdog-exceeds-slo",
            severity=Severity.WARN,
            subject="watchdog",
            message="too slow",
            remediation="lower it",
            observed=(("deadline", 0.005), ("slo_ceiling", 0.002)),
        )
        assert Finding.from_dict(finding.to_dict()) == finding

    def test_merge_dedupes_by_identity(self):
        a = _finding(message="same")
        b = _finding(message="same")
        c = _finding(message="different")
        assert merge_findings([a], [b, c]) == merge_findings([a, b], [c])
        assert len(merge_findings([a], [b, c])) == 2

    def test_merge_sorts_most_severe_first(self):
        warn = _finding(rule="b", severity=Severity.WARN)
        error = _finding(rule="z", severity=Severity.ERROR)
        merged = merge_findings([warn, error])
        assert [f.severity for f in merged] == [Severity.ERROR, Severity.WARN]

    def test_merge_is_grouping_invariant(self):
        findings = [
            _finding(rule=r, subject=s)
            for r in ("a", "b", "c")
            for s in ("x", "y")
        ]
        one_pass = merge_findings(findings)
        pairwise = merge_findings(
            merge_findings(findings[:2]),
            merge_findings(findings[2:5]),
            merge_findings(findings[5:]),
        )
        assert one_pass == pairwise

    def test_error_findings_become_violation_records(self):
        records = findings_to_violations(
            [_finding(rule="no-hosts"), _finding(severity=Severity.WARN)]
        )
        assert records == [
            {"code": "no-hosts", "subject": "s", "message": "m"}
        ]


class TestAuditReport:
    def test_json_round_trip(self):
        report = AuditReport(targets=["pipeline"])
        report.findings.append(_finding())
        report.rules_run = 9
        payload = report.to_json()
        assert payload["format"] == AUDIT_FORMAT
        assert payload["summary"] == {"errors": 1, "warnings": 0, "ok": False}
        back = AuditReport.from_json(payload)
        assert back.findings == report.findings
        assert back.rules_run == 9 and back.targets == ["pipeline"]

    def test_from_json_rejects_foreign_formats(self):
        with pytest.raises(ValueError, match="orthrus-audit/1"):
            AuditReport.from_json({"format": "orthrus-metrics/1"})

    def test_merge_accumulates_rules_and_targets(self):
        a = AuditReport(findings=[_finding(rule="x")], rules_run=9,
                        targets=["pipeline"])
        b = AuditReport(findings=[_finding(rule="y")], rules_run=12,
                        targets=["fleet"])
        a.merge(b)
        assert a.rules_run == 21
        assert a.targets == ["pipeline", "fleet"]
        assert {f.rule for f in a.findings} == {"x", "y"}

    def test_render_names_rules_and_remediation(self):
        report = AuditReport(targets=["pipeline"], rules_run=1)
        report.findings.append(
            Finding(rule="validator-pool-empty", severity=Severity.ERROR,
                    subject="pipeline", message="no cores",
                    remediation="set validation_cores >= 1")
        )
        text = report.render()
        assert "validator-pool-empty" in text
        assert "fix: set validation_cores >= 1" in text

    def test_render_clean_report(self):
        text = render_audit(audit_pipeline(PipelineConfig()).to_json())
        assert "no contradictions found" in text
        assert "0 error(s)" in text


class TestPipelineRules:
    def test_defaults_are_clean(self):
        report = audit_pipeline(PipelineConfig())
        assert report.ok and not report.warnings
        assert report.rules_run == len(pipeline_rules())

    def test_empty_validator_pool(self):
        report = audit_pipeline(PipelineConfig(validation_cores=0))
        assert [f.rule for f in report.errors] == ["validator-pool-empty"]

    def test_unknown_sampler_target(self):
        config = PipelineConfig(sampler_targets=("nba.stats.fetch",))
        report = audit_pipeline(config, known_closures={"cache.get"})
        assert [f.rule for f in report.errors] == ["sampler-target-unknown"]
        assert report.errors[0].subject == "nba.stats.fetch"

    def test_registered_sampler_target_passes(self):
        config = PipelineConfig(sampler_targets=("cache.get",))
        report = audit_pipeline(config, known_closures={"cache.get"})
        assert report.ok

    def test_inverted_canary_deadline(self):
        config = PipelineConfig(canary=CanaryConfig(period=1e-3, deadline=1e-4))
        report = audit_pipeline(config)
        assert "canary-deadline-inverted" in {f.rule for f in report.errors}

    def test_unknown_overflow_policy(self):
        config = PipelineConfig(
            fault_tolerance=FaultToleranceConfig(overflow_policy="drop-newest")
        )
        report = audit_pipeline(config)
        assert "overflow-policy-unknown" in {f.rule for f in report.errors}

    def test_unguarded_block_producer_warns(self):
        config = PipelineConfig(
            fault_tolerance=FaultToleranceConfig(
                overflow_policy="block-producer", degradation=None
            )
        )
        report = audit_pipeline(config)
        assert report.ok  # WARN, not ERROR
        assert [f.rule for f in report.warnings] == ["overflow-policy-unguarded"]

    def test_invalid_queue_capacity(self):
        config = PipelineConfig(
            fault_tolerance=FaultToleranceConfig(queue_capacity=0)
        )
        report = audit_pipeline(config)
        assert "queue-capacity-invalid" in {f.rule for f in report.errors}

    def test_component_config_violations_surface(self):
        config = PipelineConfig(audit=AuditConfig(cadence=-1.0))
        report = audit_pipeline(config)
        errors = [f for f in report.errors
                  if f.rule == "component-config-invalid"]
        assert errors and errors[0].subject == "audit"


class TestFleetRules:
    def test_defaults_are_clean(self):
        from repro.fleet.topology import FleetConfig

        assert audit_fleet(FleetConfig()).ok

    def test_structural_contradictions(self):
        from repro.fleet.topology import FleetConfig

        config = FleetConfig(
            hosts=1, shards=4, cores_per_host=8,
            validators_per_shard=4, app_cores_per_shard=4,
            quarantined=((0, 4), (0, 5), (0, 6), (0, 7)),
            watchdog_deadline=5e-3, slo_window=2e-3,
        )
        rules = {f.rule for f in audit_fleet(config).errors}
        assert {"shards-exceed-cores", "validator-pool-quarantined",
                "watchdog-exceeds-slo"} <= rules

    def test_scalar_error_does_not_hide_structural_rules(self):
        # A watchdog/SLO contradiction is not a shape error: the
        # quarantined-pool rule must still run and fire.
        from repro.fleet.topology import FleetConfig

        config = FleetConfig(
            hosts=1, shards=1, cores_per_host=4,
            validators_per_shard=2, app_cores_per_shard=2,
            quarantined=((0, 2), (0, 3)),
            watchdog_deadline=5e-3, slo_window=2e-3,
        )
        rules = {f.rule for f in audit_fleet(config).errors}
        assert "validator-pool-quarantined" in rules

    def test_shape_error_skips_structural_pass(self):
        from repro.fleet.topology import FleetConfig

        report = audit_fleet(FleetConfig(hosts=0))
        assert "no-hosts" in {f.rule for f in report.errors}
        # scalar rules only — the topology was never materialized
        assert report.rules_run == 10

    def test_rule_ids_double_as_fleet_config_error_codes(self):
        from repro.fleet.topology import FleetConfig, FleetConfigError, FleetTopology

        config = FleetConfig(hosts=0, shards=0)
        with pytest.raises(FleetConfigError) as exc:
            FleetTopology(config)
        codes = {v["code"] for v in exc.value.violations}
        assert {"no-hosts", "no-shards"} <= codes


class TestAuditConfig:
    def test_violations_and_validate(self):
        bad = AuditConfig(cadence=0.0, warmup_probes=-1, declared_pool=0,
                          residual_probes=0)
        assert len(bad.violations()) == 4
        with pytest.raises(ConfigurationError):
            bad.validate()
        assert AuditConfig().violations() == []

    @pytest.mark.parametrize("cadence", [float("nan"), float("inf")])
    def test_non_finite_cadence_rejected(self, cadence):
        assert AuditConfig(cadence=cadence).violations()

    def test_component_violations_protocol(self):
        assert component_violations(AuditConfig()) == []
        assert component_violations(AuditConfig(cadence=-1)) != []
        assert component_violations(object()) == []


class _FakeMetrics:
    def __init__(self, validated=0, operations=0):
        self.validated = validated
        self.operations = operations


class _FakeLedger:
    def __init__(self, outstanding=0, accounted=0):
        self.outstanding = outstanding
        self.accounted = accounted


def _monitor(metrics=None, obs=None, **kwargs):
    config = kwargs.pop("config", AuditConfig(warmup_probes=0))
    return DriftMonitor(
        config,
        declared_pool=kwargs.pop("declared_pool", 2),
        metrics=metrics if metrics is not None else _FakeMetrics(),
        obs=obs,
    )


class TestDriftMonitor:
    def test_violation_and_recovery_transitions(self):
        obs = Observability()
        monitor = _monitor(metrics=_FakeMetrics(validated=20), obs=obs)
        monitor.verdict(0)
        monitor.probe(now=1.0)
        assert [f.rule for f in monitor.findings] == ["drift-validator-pool"]
        assert len(obs.tracer.of_kind("audit.violation")) == 1
        # staying in violation emits no duplicate transition events
        monitor.probe(now=2.0)
        assert len(obs.tracer.of_kind("audit.violation")) == 1
        monitor.verdict(1)
        monitor.probe(now=3.0)
        assert len(obs.tracer.of_kind("audit.recover")) == 1
        # the terminal finding persists: the incident happened
        assert monitor.findings

    def test_violation_counter_increments_on_transition(self):
        obs = Observability()
        monitor = _monitor(metrics=_FakeMetrics(validated=20), obs=obs)
        monitor.probe(now=1.0)
        monitor.probe(now=2.0)
        series = obs.registry.series("orthrus_audit_violations_total")
        assert len(series) == 1
        labels, child = series[0]
        assert labels == {"rule": "drift-validator-pool"}
        assert child.value == 1
        assert monitor.violation_count == 1

    def test_validator_pool_drift(self):
        monitor = _monitor(
            metrics=_FakeMetrics(validated=20), declared_pool=4
        )
        monitor.verdict(0)
        monitor.verdict(1)
        monitor.probe(now=1.0)
        assert [f.rule for f in monitor.findings] == ["drift-validator-pool"]
        observed = dict(monitor.findings[0].observed)
        assert observed == {"declared": 4, "observed_cores": 2}

    def test_silent_pool_flags_even_with_zero_verdicts(self):
        monitor = _monitor(metrics=_FakeMetrics(operations=20), declared_pool=2)
        monitor.probe(now=1.0)
        assert "drift-validator-pool" in {f.rule for f in monitor.findings}

    def test_warmup_probes_suppress_early_flags(self):
        monitor = _monitor(
            metrics=_FakeMetrics(validated=20),
            config=AuditConfig(warmup_probes=2),
        )
        monitor.probe(now=1.0)
        monitor.probe(now=2.0)
        assert monitor.findings == []
        monitor.probe(now=3.0)
        assert monitor.findings

    def test_ledger_residual_needs_consecutive_stalls(self):
        monitor = _monitor(config=AuditConfig(warmup_probes=0, residual_probes=3))
        ledger = _FakeLedger(outstanding=5, accounted=10)
        monitor.attach_ledger(ledger)
        monitor.probe(now=1.0)  # establishes the settlement baseline
        monitor.probe(now=2.0)
        monitor.probe(now=3.0)
        assert monitor.findings == []
        monitor.probe(now=4.0)
        assert [f.rule for f in monitor.findings] == ["drift-ledger-residual"]

    def test_ledger_progress_resets_the_stall_counter(self):
        monitor = _monitor(config=AuditConfig(warmup_probes=0, residual_probes=2))
        ledger = _FakeLedger(outstanding=5, accounted=10)
        monitor.attach_ledger(ledger)
        monitor.probe(now=1.0)
        ledger.accounted += 1  # settlement progressed
        monitor.probe(now=2.0)
        monitor.probe(now=3.0)
        assert monitor.findings == []

    def test_finalize_reports_terminal_residual(self):
        monitor = _monitor()
        monitor.attach_ledger(_FakeLedger(outstanding=3, accounted=7))
        payload = monitor.finalize(now=9.0)
        assert payload["format"] == AUDIT_FORMAT
        assert payload["targets"] == ["runtime"]
        assert payload["rules_run"] == len(DRIFT_RULES)
        assert payload["probes"] == 1
        assert "drift-ledger-residual" in {
            f["rule"] for f in payload["findings"]
        }
        assert payload["summary"]["ok"] is False

    def test_payload_carries_the_exposure_ledger(self):
        from repro.obs.exposure import ExposureLedger

        exposure = ExposureLedger()
        exposure.record("cache.get", "sampled-out", 2e-6, 3)
        monitor = DriftMonitor(
            AuditConfig(), declared_pool=2,
            metrics=_FakeMetrics(), exposure=exposure,
        )
        payload = monitor.finalize(now=1.0)
        assert payload["exposure"]["entries"][0]["subject"] == "cache.get"
        rendered = render_audit(payload)
        assert "exposure windows" in rendered

    def test_disabled_obs_stays_silent(self):
        from repro.obs.observability import NULL_OBS

        families = len(NULL_OBS.registry.snapshot()["metrics"])
        monitor = _monitor(metrics=_FakeMetrics(validated=20))
        monitor.probe(now=1.0)
        assert monitor.findings  # the finding is still recorded
        assert len(NULL_OBS.registry.snapshot()["metrics"]) == families
