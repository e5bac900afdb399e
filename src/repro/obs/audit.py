"""Validation-plane auditing: a static rule engine + runtime drift probes.

The nba-stats-scraper incident (ROADMAP item 5) was pure configuration
drift — the system "correctly waited for processors that would never
arrive" for three days.  Orthrus's validation plane can rot the same
way: a validator pool that is entirely quarantined, a watchdog deadline
that outlives the fleet's SLO window, a sampler targeting closures no
app registers.  None of these is a *code* failure, so no test catches
them; each silently converts "protected" into "exposed".

This module is the auditor that closes the gap, in two halves:

* **Static audit** — a rule engine (one small :class:`AuditRule` per
  invariant, with an id, severity, affected subject, and remediation
  hint) cross-checking :class:`~repro.harness.pipeline.PipelineConfig`
  and :class:`~repro.fleet.topology.FleetConfig`/``FleetTopology`` for
  contradictions before a run starts.  The fleet topology's startup
  checks delegate here (the rule ids double as the
  :class:`~repro.fleet.topology.FleetConfigError` violation codes), and
  the ``doctor`` CLI subcommand runs the same rules over any config.
  Results are an :class:`AuditReport`, exported as the
  ``orthrus-audit/1`` artifact.

* **Runtime drift probes** — a :class:`DriftMonitor` polled inside the
  DES that compares *declared* config against *observed* behavior: the
  declared validator pool vs the cores that actually produced verdicts,
  and conservation-ledger residuals.  Plane liveness is the canaries'
  job (:mod:`repro.obs.canary`), and DESIGN §14.3 tabulates which alarm
  answers which failure.  Violations become ``audit.violation``
  trace events (the incident timeline), ``orthrus_audit_violations_total``
  counters, and terminal findings merged into the run's audit payload.

Findings merge associatively (dedupe by rule/subject/message, severity
sort), so fleet workers can fold shard-level findings without caring
about worker count or arrival order — the same discipline the metrics
merge uses.  Everything here is observational: no rule consumes RNG or
perturbs virtual time, so run digests are byte-identical with auditing
on or off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.obs.exposure import ExposureLedger, render_exposure
from repro.obs.observability import NULL_OBS

__all__ = [
    "AUDIT_FORMAT",
    "AuditConfig",
    "AuditReport",
    "AuditRule",
    "DRIFT_RULES",
    "DriftMonitor",
    "FLEET_CHAOS_RULES",
    "FLEET_SCALAR_RULES",
    "FLEET_STRUCTURAL_RULES",
    "Finding",
    "Severity",
    "audit_fleet",
    "audit_fleet_config",
    "audit_fleet_topology",
    "audit_pipeline",
    "component_violations",
    "findings_to_violations",
    "merge_findings",
    "pipeline_rules",
    "render_audit",
]

AUDIT_FORMAT = "orthrus-audit/1"


class Severity:
    """Finding severities, ordered most-severe-first for sorting."""

    ERROR = "error"
    WARN = "warn"
    INFO = "info"

    _ORDER = {ERROR: 0, WARN: 1, INFO: 2}

    @classmethod
    def rank(cls, severity: str) -> int:
        return cls._ORDER.get(severity, len(cls._ORDER))


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation: what broke, where, and how to fix it."""

    rule: str
    severity: str
    subject: str
    message: str
    remediation: str = ""
    #: sorted (key, value) pairs of the evidence the rule observed
    observed: tuple = ()

    def sort_key(self) -> tuple:
        return (Severity.rank(self.severity), self.rule, self.subject, self.message)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "subject": self.subject,
            "message": self.message,
            "remediation": self.remediation,
            "observed": dict(self.observed),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Finding":
        return cls(
            rule=payload["rule"],
            severity=payload.get("severity", Severity.ERROR),
            subject=payload.get("subject", ""),
            message=payload.get("message", ""),
            remediation=payload.get("remediation", ""),
            observed=tuple(sorted(payload.get("observed", {}).items())),
        )


def merge_findings(*groups) -> list[Finding]:
    """Associative fold: dedupe by (rule, subject, message), severity sort.

    Order-independent in the output, so the fleet merge is worker-count
    invariant by construction.
    """
    seen: dict[tuple, Finding] = {}
    for group in groups:
        for finding in group:
            seen[(finding.rule, finding.subject, finding.message)] = finding
    return sorted(seen.values(), key=Finding.sort_key)


def findings_to_violations(findings) -> list[dict]:
    """ERROR findings as the ``{"code", "subject", "message"}`` records
    :class:`~repro.fleet.topology.FleetConfigError` carries."""
    return [
        {"code": f.rule, "subject": f.subject, "message": f.message}
        for f in findings
        if f.severity == Severity.ERROR
    ]


def component_violations(component) -> list[str]:
    """A component config's own violations, as messages.

    Prefers the structured ``violations()`` protocol (DegradationConfig,
    WatchdogConfig, CanaryConfig, QuarantineConfig, AuditConfig); falls
    back to calling ``validate()`` and catching the first complaint.
    """
    probe = getattr(component, "violations", None)
    if callable(probe):
        return [str(message) for message in probe()]
    validate = getattr(component, "validate", None)
    if callable(validate):
        try:
            validate()
        except ConfigurationError as exc:
            return [str(exc)]
    return []


class AuditRule:
    """One invariant over a config/topology object.

    Subclasses set the class attributes and implement :meth:`check`,
    returning zero or more :class:`Finding`\\ s.  Rules never raise on a
    bad config — collecting every defect in one pass is the point.
    """

    rule_id = "abstract"
    severity = Severity.ERROR
    description = ""
    remediation = ""
    #: fleet scalar rules: a violation leaves no host/shard views to check
    shape = False

    def check(self, target) -> list[Finding]:
        raise NotImplementedError

    def finding(
        self, subject: str, message: str, severity: str | None = None, **observed
    ) -> Finding:
        return Finding(
            rule=self.rule_id,
            severity=self.severity if severity is None else severity,
            subject=subject,
            message=message,
            remediation=self.remediation,
            observed=tuple(sorted(observed.items())),
        )


@dataclass
class AuditReport:
    """Everything one static audit concluded; ``to_json`` is the artifact."""

    findings: list = field(default_factory=list)
    rules_run: int = 0
    targets: list = field(default_factory=list)

    @property
    def errors(self) -> list:
        return [f for f in self.findings if f.severity == Severity.ERROR]

    @property
    def warnings(self) -> list:
        return [f for f in self.findings if f.severity == Severity.WARN]

    @property
    def ok(self) -> bool:
        return not self.errors

    def run(self, rules, target) -> None:
        """Apply each rule to ``target``, collecting its findings."""
        for rule in rules:
            self.findings.extend(rule.check(target))
            self.rules_run += 1

    def merge(self, other: "AuditReport") -> None:
        self.findings = merge_findings(self.findings, other.findings)
        self.rules_run += other.rules_run
        for target in other.targets:
            if target not in self.targets:
                self.targets.append(target)

    def to_json(self) -> dict:
        findings = merge_findings(self.findings)
        return {
            "format": AUDIT_FORMAT,
            "targets": list(self.targets),
            "rules_run": self.rules_run,
            "summary": {
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "ok": self.ok,
            },
            "findings": [f.to_dict() for f in findings],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "AuditReport":
        if payload.get("format") != AUDIT_FORMAT:
            raise ValueError(f"not an {AUDIT_FORMAT} artifact")
        return cls(
            findings=[Finding.from_dict(f) for f in payload.get("findings", [])],
            rules_run=int(payload.get("rules_run", 0)),
            targets=list(payload.get("targets", [])),
        )

    def render(self) -> str:
        return render_audit(self.to_json())


def render_audit(payload: dict) -> str:
    """Console rendering of an ``orthrus-audit/1`` payload (static audits
    and runtime drift payloads share the shape)."""
    summary = payload.get("summary", {})
    targets = ", ".join(payload.get("targets", [])) or "config"
    head = (
        f"validation-plane audit ({targets}): "
        f"{summary.get('errors', 0)} error(s), "
        f"{summary.get('warnings', 0)} warning(s) "
        f"over {payload.get('rules_run', 0)} rule(s)"
    )
    if "probes" in payload:
        head += f", {payload['probes']} drift probe(s)"
    lines = [head]
    for finding in payload.get("findings", []):
        lines.append(
            f"  [{finding['severity'].upper():<5}] {finding['rule']}"
            f"  {finding['subject']}: {finding['message']}"
        )
        if finding.get("remediation"):
            lines.append(f"          fix: {finding['remediation']}")
    exposure = payload.get("exposure")
    if exposure is not None:
        lines.extend(render_exposure(exposure).splitlines())
    if not payload.get("findings"):
        lines.append("  no contradictions found")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# pipeline rules
# ----------------------------------------------------------------------


class ValidatorPoolPresent(AuditRule):
    rule_id = "validator-pool-empty"
    description = "the pipeline declares at least one validation core"
    remediation = "set validation_cores >= 1"

    def check(self, config) -> list[Finding]:
        cores = getattr(config, "validation_cores", 1)
        if cores >= 1:
            return []
        return [
            self.finding(
                "pipeline",
                f"validation_cores must be >= 1, got {cores} — "
                "the plane could never validate anything",
                validation_cores=cores,
            )
        ]


class SamplerTargetsRegistered(AuditRule):
    rule_id = "sampler-target-unknown"
    description = "every declared sampler target is a registered closure"
    remediation = "register the closure with @closure(...) or drop the target"

    def __init__(self, known_closures=None):
        self._known = known_closures

    def check(self, config) -> list[Finding]:
        targets = tuple(getattr(config, "sampler_targets", ()) or ())
        if not targets:
            return []
        known = self._known
        if known is None:
            from repro.closures import CLOSURE_REGISTRY
            from repro.obs.canary import CANARY_CLOSURE

            known = set(CLOSURE_REGISTRY) | {CANARY_CLOSURE}
        findings = []
        for target in targets:
            if target in known:
                continue
            findings.append(
                self.finding(
                    target,
                    f"sampler targets closure {target!r} but no app "
                    "registers it — the target would wait forever",
                    registered_closures=len(known),
                )
            )
        return findings


class CanaryDeadlineOrdered(AuditRule):
    rule_id = "canary-deadline-inverted"
    description = "each canary gets a detection window shorter than the cadence"
    remediation = (
        "raise the canary deadline above its period "
        "(or leave it unset for the 3x-period default)"
    )

    def check(self, config) -> list[Finding]:
        canary = getattr(config, "canary", None)
        if canary is None:
            return []
        period = float(getattr(canary, "period", 0.0))
        deadline = float(getattr(canary, "deadline", 0.0))
        if deadline <= 0.0 or period < deadline:
            return []
        return [
            self.finding(
                "canary",
                f"canary period {period:g}s >= deadline {deadline:g}s — "
                "probes would be declared missed on the detector's own "
                "schedule, not the plane's health",
                period=period,
                deadline=deadline,
            )
        ]


class OverflowPolicyKnown(AuditRule):
    rule_id = "overflow-policy-unknown"
    description = "the bounded-queue overflow policy names a real policy"
    remediation = "pick one of the repro.validation.queues overflow policies"

    def check(self, config) -> list[Finding]:
        ft = getattr(config, "fault_tolerance", None)
        if ft is None:
            return []
        from repro.validation.queues import OVERFLOW_POLICIES

        policy = getattr(ft, "overflow_policy", None)
        if policy in OVERFLOW_POLICIES:
            return []
        return [
            self.finding(
                "queues",
                f"unknown overflow policy {policy!r}; expected one of "
                f"{sorted(OVERFLOW_POLICIES)}",
                policy=str(policy),
            )
        ]


class OverflowPolicyGuarded(AuditRule):
    rule_id = "overflow-policy-unguarded"
    severity = Severity.WARN
    description = (
        "block-producer overflow is paired with a degradation ladder so a "
        "hung pool cannot stall producers (and the conservation ledger) "
        "forever"
    )
    remediation = "enable the degradation ladder alongside block-producer"

    def check(self, config) -> list[Finding]:
        ft = getattr(config, "fault_tolerance", None)
        if ft is None or getattr(ft, "overflow_policy", "") != "block-producer":
            return []
        if getattr(ft, "degradation", None) is not None:
            return []
        return [
            self.finding(
                "queues",
                "block-producer overflow with no degradation ladder: a hung "
                "validator pool blocks every producer, records no drops, and "
                "the conservation ledger can never settle",
                policy="block-producer",
            )
        ]


class QueueCapacityPositive(AuditRule):
    rule_id = "queue-capacity-invalid"
    description = "a bounded validation queue holds at least one log"
    remediation = "set queue_capacity >= 1 (or None for unbounded)"

    def check(self, config) -> list[Finding]:
        ft = getattr(config, "fault_tolerance", None)
        if ft is None:
            return []
        capacity = getattr(ft, "queue_capacity", None)
        if capacity is None or capacity >= 1:
            return []
        return [
            self.finding(
                "queues",
                f"queue capacity must be >= 1 when bounded, got {capacity}",
                capacity=capacity,
            )
        ]


class ComponentConfigsValid(AuditRule):
    rule_id = "component-config-invalid"
    description = "every attached component config passes its own checks"
    remediation = "fix the named component config before starting the run"

    def check(self, config) -> list[Finding]:
        ft = getattr(config, "fault_tolerance", None)
        components = (
            ("watchdog", getattr(ft, "watchdog", None) if ft else None),
            ("degradation", getattr(ft, "degradation", None) if ft else None),
            ("canary", getattr(config, "canary", None)),
            ("audit", getattr(config, "audit", None)),
        )
        findings = []
        for name, component in components:
            if component is None:
                continue
            for message in component_violations(component):
                findings.append(self.finding(name, message))
        return findings


def pipeline_rules(known_closures=None) -> tuple:
    """The static rule set for one :class:`PipelineConfig`."""
    return (
        ValidatorPoolPresent(),
        SamplerTargetsRegistered(known_closures),
        CanaryDeadlineOrdered(),
        OverflowPolicyKnown(),
        OverflowPolicyGuarded(),
        QueueCapacityPositive(),
        ComponentConfigsValid(),
    )


def audit_pipeline(config, known_closures=None) -> AuditReport:
    """Statically audit one pipeline config (the ``doctor`` entry point)."""
    report = AuditReport(targets=["pipeline"])
    report.run(pipeline_rules(known_closures), config)
    return report


# ----------------------------------------------------------------------
# fleet rules (rule ids double as FleetConfigError violation codes)
# ----------------------------------------------------------------------


class FieldThreshold(AuditRule):
    """One fleet scalar checked against a threshold (a row of
    :data:`FLEET_FIELD_RULES`)."""

    def __init__(self, rule_id, field_name, ok, message, remediation, shape):
        self.rule_id, self.field_name, self.ok = rule_id, field_name, ok
        self.message, self.remediation, self.shape = message, remediation, shape

    def check(self, config) -> list[Finding]:
        value = getattr(config, self.field_name)
        if self.ok(value):
            return []
        return [self.finding("fleet", self.message.format(value=value))]


#: (rule id, field, predicate, message, remediation, shape): a shape
#: rule's violation makes the host/shard views meaningless
FLEET_FIELD_RULES = tuple(FieldThreshold(*row) for row in (
    ("no-hosts", "hosts", lambda v: v >= 1,
     "hosts must be >= 1, got {value}", "set hosts >= 1", True),
    ("no-shards", "shards", lambda v: v >= 1,
     "shards must be >= 1, got {value}", "set shards >= 1", True),
    ("no-cores", "cores_per_host", lambda v: v >= 1,
     "cores_per_host must be >= 1", "set cores_per_host >= 1", True),
    ("no-validators", "validators_per_shard", lambda v: v >= 1,
     "validators_per_shard must be >= 1", "set validators_per_shard >= 1",
     True),
    ("no-app-cores", "app_cores_per_shard", lambda v: v >= 1,
     "app_cores_per_shard must be >= 1", "set app_cores_per_shard >= 1",
     True),
    ("too-few-epochs", "epochs", lambda v: v >= 2,
     "epochs must be >= 2", "run at least two epochs", False),
    ("bad-epoch", "epoch_s", lambda v: v > 0,
     "epoch_s must be > 0", "set epoch_s > 0", False),
    ("bad-min-coverage", "min_coverage", lambda v: 0.0 <= v <= 1.0,
     "min_coverage must be in [0, 1]", "keep min_coverage inside [0, 1]",
     False),
))


class FleetWatchdogWithinSlo(AuditRule):
    rule_id = "watchdog-exceeds-slo"
    remediation = "lower watchdog_deadline below slo_window"

    def check(self, config) -> list[Finding]:
        if config.watchdog_deadline <= config.slo_window:
            return []
        return [
            self.finding(
                "fleet",
                f"watchdog deadline {config.watchdog_deadline:g}s exceeds "
                f"the SLO window {config.slo_window:g}s — timeouts would "
                "be declared after the SLO is already burned",
                deadline=config.watchdog_deadline,
                slo_window=config.slo_window,
            )
        ]


class QuarantineWithinTopology(AuditRule):
    rule_id = "quarantine-out-of-range"
    shape = True
    remediation = "quarantine only (host, core) pairs inside the topology"

    def check(self, config) -> list[Finding]:
        findings = []
        for host_id, core in config.quarantined:
            if not (0 <= int(host_id) < config.hosts) or not (
                0 <= int(core) < config.cores_per_host
            ):
                findings.append(
                    self.finding(
                        f"h{int(host_id):03d}/c{int(core)}",
                        "pre-quarantined core is outside the topology",
                    )
                )
        return findings


class ShardsFitUsableCores(AuditRule):
    rule_id = "shards-exceed-cores"
    remediation = "add cores, shrink per-shard pools, or shed shards"

    def check(self, topology) -> list[Finding]:
        config = topology.config
        findings = []
        for host in topology.hosts:
            demanded = len(host.shard_ids) * (
                config.app_cores_per_shard + config.validators_per_shard
            )
            usable = host.cores - len(host.quarantined)
            if demanded > usable:
                findings.append(
                    self.finding(
                        host.name,
                        f"{len(host.shard_ids)} shard(s) demand {demanded} "
                        f"cores but only {usable} usable core(s) remain "
                        f"({host.cores} - {len(host.quarantined)} "
                        "quarantined)",
                        demanded=demanded,
                        usable=usable,
                    )
                )
        return findings


class ValidatorPoolUsable(AuditRule):
    rule_id = "validator-pool-quarantined"
    remediation = "release a quarantined core or re-home the shard"

    def check(self, topology) -> list[Finding]:
        findings = []
        for shard in topology.shards:
            host = topology.hosts[shard.host_id]
            if set(shard.validator_cores) <= set(host.quarantined):
                findings.append(
                    self.finding(
                        shard.name,
                        f"every validator core {list(shard.validator_cores)} "
                        f"on {host.name} is quarantined — the shard could "
                        "never validate anything",
                        pool=len(shard.validator_cores),
                    )
                )
        return findings


class ChaosHostsKnown(AuditRule):
    """Every host a fault plan names must exist in the topology — a
    partition between unknown hosts would silently test nothing."""

    rule_id = "chaos-unknown-host"
    remediation = "name only host ids inside [0, hosts) in the fault plan"

    def check(self, config) -> list[Finding]:
        plan = getattr(config, "faults", None)
        if plan is None:
            return []
        findings = []

        def bad(host: int) -> bool:
            return not (0 <= int(host) < config.hosts)

        for crash in plan.crashes:
            if bad(crash.host):
                findings.append(
                    self.finding(
                        f"crash/h{crash.host}",
                        f"crash names host {crash.host} outside the "
                        f"{config.hosts}-host topology",
                    )
                )
        for kind, links in (
            ("partition", plan.partitions), ("degradation", plan.degradations)
        ):
            for link in links:
                if bad(link.host_a) or bad(link.host_b):
                    findings.append(
                        self.finding(
                            f"{kind}/h{link.host_a}-h{link.host_b}",
                            f"{kind} names a host pair outside the "
                            f"{config.hosts}-host topology",
                        )
                    )
                elif link.host_a == link.host_b:
                    findings.append(
                        self.finding(
                            f"{kind}/h{link.host_a}-h{link.host_b}",
                            f"a {kind} needs two distinct hosts — a host "
                            "has no network link to itself",
                        )
                    )
        for straggler in plan.stragglers:
            for host in straggler.hosts:
                if bad(host):
                    findings.append(
                        self.finding(
                            f"straggler/h{host}",
                            f"straggler window names host {host} outside "
                            f"the {config.hosts}-host topology",
                        )
                    )
        return findings


class CrashWindowWithinHorizon(AuditRule):
    """A crash window must fit the simulated horizon: a crash armed at or
    beyond the last epoch never fires, and a partition/outage running past
    the horizon tests less than the plan claims."""

    rule_id = "crash-window-exceeds-horizon"
    remediation = "arm faults before the horizon and size windows to fit"

    def check(self, config) -> list[Finding]:
        plan = getattr(config, "faults", None)
        if plan is None:
            return []
        findings = []
        for crash in plan.crashes:
            if crash.at_epoch >= config.epochs:
                findings.append(
                    self.finding(
                        f"crash/h{crash.host}",
                        f"crash armed at epoch {crash.at_epoch} but the "
                        f"simulation only runs {config.epochs} epoch(s) — "
                        "the crash would never fire",
                        at_epoch=crash.at_epoch,
                        epochs=config.epochs,
                    )
                )
            elif (
                crash.restart_after is not None
                and crash.at_epoch + crash.restart_after
                + config.probation_epochs >= config.epochs
            ):
                findings.append(
                    self.finding(
                        f"crash/h{crash.host}",
                        "crash window plus probation "
                        f"({crash.at_epoch}+{crash.restart_after}"
                        f"+{config.probation_epochs}) runs past the "
                        f"{config.epochs}-epoch horizon — the host never "
                        "re-admits",
                        severity=Severity.WARN,
                        at_epoch=crash.at_epoch,
                        restart_after=crash.restart_after,
                        epochs=config.epochs,
                    )
                )
        for kind, links in (
            ("partition", plan.partitions), ("degradation", plan.degradations)
        ):
            for link in links:
                if link.at_epoch >= config.epochs:
                    findings.append(
                        self.finding(
                            f"{kind}/h{link.host_a}-h{link.host_b}",
                            f"{kind} armed at epoch {link.at_epoch} beyond "
                            f"the {config.epochs}-epoch horizon",
                            at_epoch=link.at_epoch,
                            epochs=config.epochs,
                        )
                    )
        return findings


class FailoverBudgetUsable(AuditRule):
    """Crashes planned with a zero re-dispatch budget contradict the
    failover engine: every re-homed backlog would drop immediately."""

    rule_id = "failover-retry-budget-zero"
    remediation = (
        "set failover_retry_budget >= 1 or remove the planned crashes"
    )

    def check(self, config) -> list[Finding]:
        plan = getattr(config, "faults", None)
        if plan is None or not plan.crashes:
            return []
        if config.failover_retry_budget >= 1:
            return []
        return [
            self.finding(
                "fleet",
                f"{len(plan.crashes)} host crash(es) planned but the "
                "failover retry budget is zero — every re-homed backlog "
                "would be dropped without a single re-dispatch attempt",
                crashes=len(plan.crashes),
                budget=config.failover_retry_budget,
            )
        ]


class ChaosLeavesSurvivors(AuditRule):
    """At least one host must stay up at every epoch: with the whole
    fleet down there is no ring left to re-home shards onto."""

    rule_id = "chaos-total-outage"
    remediation = "stagger crash windows so at least one host survives"

    def check(self, config) -> list[Finding]:
        plan = getattr(config, "faults", None)
        if plan is None or not plan.crashes:
            return []
        crashed = {c.host for c in plan.crashes if 0 <= c.host < config.hosts}
        if len(crashed) < config.hosts:
            return []
        for epoch in range(config.epochs):
            down = plan.down_hosts_at(epoch)
            if len(down) >= config.hosts:
                return [
                    self.finding(
                        "fleet",
                        f"every host is down at epoch {epoch} — no "
                        "surviving shard exists to re-home work onto",
                        epoch=epoch,
                    )
                ]
        return []


FLEET_SCALAR_RULES = (
    *FLEET_FIELD_RULES,
    FleetWatchdogWithinSlo(),
    QuarantineWithinTopology(),
)

#: fault-plan contradictions (only run when the config carries a plan)
FLEET_CHAOS_RULES = (
    ChaosHostsKnown(),
    CrashWindowWithinHorizon(),
    FailoverBudgetUsable(),
    ChaosLeavesSurvivors(),
)

FLEET_STRUCTURAL_RULES = (
    ShardsFitUsableCores(),
    ValidatorPoolUsable(),
)

#: structural rules are skipped only when a shape rule fires, so e.g. a
#: watchdog/SLO contradiction cannot hide a quarantined validator pool
_FLEET_SHAPE_RULES = frozenset(
    rule.rule_id for rule in FLEET_SCALAR_RULES if rule.shape
)


def _fleet_config_rules(config) -> tuple:
    """The scalar rules, plus the fault-plan rules whenever the config
    carries a chaos plan, so the topology constructor fails closed on
    chaos contradictions too."""
    if getattr(config, "faults", None) is None:
        return FLEET_SCALAR_RULES
    return FLEET_SCALAR_RULES + FLEET_CHAOS_RULES


def audit_fleet_config(config) -> list[Finding]:
    """Scalar and fault-plan fleet invariants (no topology needed)."""
    return [f for rule in _fleet_config_rules(config) for f in rule.check(config)]


def audit_fleet_topology(topology) -> list[Finding]:
    """Structural fleet invariants over materialized host/shard views."""
    return [f for rule in FLEET_STRUCTURAL_RULES for f in rule.check(topology)]


def audit_fleet(config) -> AuditReport:
    """Statically audit one fleet config (the ``doctor`` entry point).

    Structural rules need materialized views; they only run when no
    shape rule fired, so the views can be built safely.
    """
    report = AuditReport(targets=["fleet"])
    report.run(_fleet_config_rules(config), config)
    if not any(f.rule in _FLEET_SHAPE_RULES for f in report.errors):
        from repro.fleet.topology import FleetTopology

        report.run(FLEET_STRUCTURAL_RULES, FleetTopology.unchecked(config))
    return report


# ----------------------------------------------------------------------
# runtime drift probes
# ----------------------------------------------------------------------

#: the drift rule ids a DriftMonitor can raise
DRIFT_RULES = (
    "drift-validator-pool",
    "drift-ledger-residual",
)


@dataclass(slots=True)
class AuditConfig:
    """Runtime drift-probe knobs; set ``PipelineConfig.audit`` to enable."""

    #: virtual seconds between drift probes (matches the fault-tolerance
    #: plane's default check interval, so short CI runs still warm up)
    cadence: float = 25e-6
    #: probes skipped before pool drift may flag (startup transients:
    #: the first logs are still in flight)
    warmup_probes: int = 2
    #: declared validator pool size; None derives ``validation_cores``
    declared_pool: int | None = None
    #: consecutive stalled probes (work outstanding, nothing settling)
    #: before the conservation-ledger residual rule fires
    residual_probes: int = 3

    def violations(self) -> list[str]:
        found = []
        if not 0 < self.cadence < math.inf:
            found.append(f"audit cadence must be positive and finite, got {self.cadence}")
        if self.warmup_probes < 0:
            found.append("audit warmup_probes must be >= 0")
        if self.declared_pool is not None and self.declared_pool < 1:
            found.append("audit declared_pool must be >= 1")
        if self.residual_probes < 1:
            found.append("audit residual_probes must be >= 1")
        return found

    def validate(self) -> None:
        for message in self.violations():
            raise ConfigurationError(message)


class DriftMonitor:
    """Periodic declared-vs-observed comparison inside the DES.

    Drivers call :meth:`verdict` as validators produce verdicts and
    :meth:`probe` on the audit cadence (plus once from
    :meth:`finalize`).  Violations emit ``audit.violation`` trace events
    on the transition into the violated state (and ``audit.recover`` on
    the way out), bump ``orthrus_audit_violations_total{rule=...}``, and
    persist as findings in the terminal :meth:`payload`.
    """

    def __init__(
        self,
        config: AuditConfig,
        *,
        declared_pool: int,
        metrics=None,
        obs=None,
        exposure=None,
    ):
        config.validate()
        self.config = config
        self._obs = obs if obs is not None else NULL_OBS
        self._metrics = metrics
        self._exposure = exposure
        self._declared_pool = (
            config.declared_pool
            if config.declared_pool is not None
            else declared_pool
        )
        self._ledger = None
        self._verdict_cores: set[int] = set()
        self.probes = 0
        self.violation_count = 0
        self._findings: dict[tuple, Finding] = {}
        self._active: set[tuple] = set()
        self._stalled_probes = 0
        self._last_accounted = -1

    # -- wiring ---------------------------------------------------------
    def attach_ledger(self, ledger) -> None:
        """Watch a :class:`ValidationLedger` for conservation residuals."""
        self._ledger = ledger

    def verdict(self, core_id: int) -> None:
        """A validator core produced a verdict (evidence it is alive)."""
        self._verdict_cores.add(core_id)

    @property
    def findings(self) -> list[Finding]:
        return merge_findings(self._findings.values())

    # -- violation bookkeeping ------------------------------------------
    def _flag(
        self,
        rule: str,
        subject: str,
        message: str,
        now: float,
        severity: str = Severity.ERROR,
        remediation: str = "",
        **observed,
    ) -> None:
        self._findings[(rule, subject)] = Finding(
            rule=rule,
            severity=severity,
            subject=subject,
            message=message,
            remediation=remediation,
            observed=tuple(sorted(observed.items())),
        )
        key = (rule, subject)
        if key in self._active:
            return
        self._active.add(key)
        self.violation_count += 1
        if self._obs.enabled:
            self._obs.registry.counter(
                "orthrus_audit_violations_total",
                {"rule": rule},
                help="runtime drift-probe violations by rule",
            ).inc()
            self._obs.tracer.emit(
                "audit.violation",
                ts=now,
                rule=rule,
                subject=subject,
                message=message,
                **dict(observed),
            )

    def _clear(self, rule: str, subject: str, now: float) -> None:
        key = (rule, subject)
        if key not in self._active:
            return
        self._active.discard(key)
        if self._obs.enabled:
            self._obs.tracer.emit(
                "audit.recover", ts=now, rule=rule, subject=subject
            )

    # -- the probes -----------------------------------------------------
    def probe(self, now: float) -> None:
        """One declared-vs-observed pass (driver calls on the cadence)."""
        self.probes += 1
        warm = self.probes > self.config.warmup_probes
        metrics = self._metrics
        validated = float(getattr(metrics, "validated", 0) or 0)
        operations = float(getattr(metrics, "operations", 0) or 0)

        # declared validator pool vs cores that actually produced verdicts
        active = len(self._verdict_cores)
        spoke_up = validated >= 4 * self._declared_pool or (
            validated == 0 and operations >= 16
        )
        if warm and active < self._declared_pool and spoke_up:
            self._flag(
                "drift-validator-pool",
                "validators",
                f"declared pool of {self._declared_pool} validator core(s) "
                f"but only {active} produced verdicts",
                now,
                remediation=(
                    "check for hung/crashed validators or shrink the "
                    "declared pool"
                ),
                declared=self._declared_pool,
                observed_cores=active,
            )
        elif active >= self._declared_pool:
            self._clear("drift-validator-pool", "validators", now)

        # conservation-ledger residual: outstanding work, nothing settling
        if self._ledger is not None:
            outstanding = int(getattr(self._ledger, "outstanding", 0))
            accounted = int(getattr(self._ledger, "accounted", 0))
            progressed = accounted != self._last_accounted
            self._last_accounted = accounted
            if outstanding > 0 and not progressed:
                self._stalled_probes += 1
            else:
                self._stalled_probes = 0
                self._clear("drift-ledger-residual", "ledger", now)
            if self._stalled_probes >= self.config.residual_probes:
                self._flag(
                    "drift-ledger-residual",
                    "ledger",
                    f"{outstanding} closure log(s) outstanding with no "
                    f"settlement for {self._stalled_probes} probe(s)",
                    now,
                    remediation=(
                        "check the watchdog deadline and validator liveness"
                    ),
                    outstanding=outstanding,
                )

    def finalize(self, now: float) -> dict:
        """Terminal sweep + the run's ``orthrus-audit/1`` payload."""
        self.probe(now)
        if self._ledger is not None:
            outstanding = int(getattr(self._ledger, "outstanding", 0))
            if outstanding > 0:
                self._flag(
                    "drift-ledger-residual",
                    "ledger",
                    f"run ended with {outstanding} closure log(s) never "
                    "reaching a terminal state",
                    now,
                    remediation=(
                        "check the watchdog deadline and validator liveness"
                    ),
                    outstanding=outstanding,
                )
        return self.payload()

    def payload(self) -> dict:
        findings = self.findings
        errors = [f for f in findings if f.severity == Severity.ERROR]
        warnings = [f for f in findings if f.severity == Severity.WARN]
        payload = {
            "format": AUDIT_FORMAT,
            "targets": ["runtime"],
            "rules_run": len(DRIFT_RULES),
            "probes": self.probes,
            "summary": {
                "errors": len(errors),
                "warnings": len(warnings),
                "ok": not errors,
            },
            "findings": [f.to_dict() for f in findings],
        }
        if self._exposure is not None:
            payload["exposure"] = self._exposure.to_dict()
        return payload


class _DriftAttachment:
    """Drift probes and the exposure ledger in a DES session (DESIGN §14).
    Observational only: no RNG, no virtual-time perturbation of the
    functional path, so digests are identical with auditing on or off."""

    def __init__(self, session, config: AuditConfig):
        self.session, self.config = session, config
        self.exposure: ExposureLedger | None = None
        self.drift: DriftMonitor | None = None

    def observe(self) -> None:
        session, obs = self.session, self.session.obs
        self.exposure = ExposureLedger(registry=obs.registry if obs.enabled else None)
        self.drift = DriftMonitor(
            self.config,
            declared_pool=session.config.validation_cores,
            metrics=session.metrics,
            obs=obs,
            exposure=self.exposure,
        )
        if session.supervised:
            # The conservation ledger is the residual-drift signal: work
            # outstanding while nothing settles means the plane is wedged.
            self.drift.attach_ledger(session.ledger)

    def start(self, _submit) -> None:
        session, drift = self.session, self.drift
        env = session.env

        def audit_probe_process():
            while True:
                yield env.timeout(drift.config.cadence)
                drift.probe(env.now)
                if session.quiesced:
                    return

        env.process(audit_probe_process())

    def verdict(self, core_id: int, _outcome) -> None:
        self.drift.verdict(core_id)

    def exposed(self, closure: str, reason: str, seconds: float) -> None:
        self.exposure.record(closure, reason, seconds)

    def finish(self, result) -> None:
        # One terminal probe (so the last timeline sample sees every
        # violation counter), then freeze the audit payload.
        result.audit = self.drift.finalize(self.session.env.now)


def attach(session) -> _DriftAttachment | None:
    """Extension-table row (``repro.harness.pipeline.EXTENSIONS``): drift
    probes when the run's config sets ``audit`` (True for the defaults)."""
    config = session.config.audit
    if config is None:
        return None
    return _DriftAttachment(session, AuditConfig() if config is True else config)
