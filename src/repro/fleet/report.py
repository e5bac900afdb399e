"""Fleet run report: rollups, console rendering, and the JSON artifact.

The report is the single object the ``fleet`` CLI subcommand consumes:
it owns the merged registry (exported via the standard
``orthrus-metrics/1`` snapshot, so ``obs-summary`` renders fleet runs),
the merged timeline (``orthrus-timeseries/1``, so the ``timeline``
subcommand renders them too), the totally-ordered event stream, and the
fleet digest.  ``to_json`` is the ``orthrus-fleet/1`` artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fleet.merge import FleetTimeline
from repro.fleet.topology import FleetConfig
from repro.obs.exporters import format_wall
from repro.obs.exposure import ExposureLedger
from repro.obs.metrics import MetricsRegistry
from repro.sim.metrics import RunMetrics

__all__ = ["FleetReport"]


@dataclass
class FleetReport:
    """Everything one fleet run produced, post-merge."""

    config: FleetConfig
    topology: dict
    digest: str
    events: list
    registry: MetricsRegistry
    timeline: FleetTimeline
    shards: list
    grounds: list
    ground_metrics: list
    workers: int
    wall_s: float
    rollup: dict = field(default_factory=dict)
    #: merged ``orthrus-audit/1`` payload of per-shard drift findings
    audit: dict | None = None
    #: per-host-group supervision records from the fan-out (empty when
    #: the run was inline or every group returned first try)
    fan_out: list = field(default_factory=list)

    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Compute the fleet-wide rollups and stamp them into the merged
        registry so they round-trip through ``obs-summary``."""
        registry = self.registry
        value = registry.value
        ops = value("fleet_ops_total")
        validated = value("fleet_validated_total")
        coverage = validated / ops if ops else 0.0
        incidents = {
            labels["kind"]: int(child.value)
            for labels, child in registry.series("fleet_incidents_total")
        }
        census: dict[str, list[int]] = {}
        for shard in self.shards:
            if shard["quarantined_cores"]:
                census.setdefault(shard["host"], []).extend(
                    shard["quarantined_cores"]
                )
        terminal: dict[str, int] = {}
        peak = "normal"
        levels = ("normal", "degraded", "checksum-only", "safe-hold")
        for shard in self.shards:
            terminal[shard["terminal_level"]] = (
                terminal.get(shard["terminal_level"], 0) + 1
            )
            if levels.index(shard["peak_level"]) > levels.index(peak):
                peak = shard["peak_level"]
        safe_hold = sorted(
            s["shard"] for s in self.shards if s["terminal_level"] == "safe-hold"
        )
        ground_rollup = None
        if self.ground_metrics:
            pooled = RunMetrics()
            for metrics in self.ground_metrics:
                pooled.merge(metrics)
            ground_rollup = {
                "shards": len(self.ground_metrics),
                "operations": pooled.operations,
                "validated": pooled.validated,
                "detections": pooled.detections,
                "lag": pooled.validation_latency.summary(),
                "digests": {
                    g["shard"]: g["digest"]
                    for g in sorted(self.grounds, key=lambda g: g["shard"])
                },
            }
        lag = registry.series("fleet_validation_lag_seconds")
        lag_summary = lag[0][1].summary() if lag else {}
        exposure = ExposureLedger.from_registry(registry, subject_label="shard")

        # -- failover rollup (zeros on a healthy fleet) ------------------
        failover_series = registry.series("fleet_failover_lag_seconds")
        failover_lag = (
            failover_series[0][1].summary() if failover_series else {}
        )
        re_homed = int(value("fleet_re_homed_total"))
        recovered = int(value("fleet_failover_recovered_total"))
        failover_dropped = int(value("fleet_failover_dropped_total"))
        failovers = sum(
            1 for event in self.events if event["kind"] == "fleet.failover"
        )
        failover_exposure = exposure.by_reason().get(
            "failover", {"logs": 0, "seconds": 0.0}
        )
        backlog = sum(int(s.get("backlog", 0)) for s in self.shards)

        # -- conservation ledger: every offered log must land in exactly
        # one terminal bucket (the zero-lost-logs acceptance gate) -------
        accounted = (
            int(validated) + int(value("fleet_skipped_total"))
            + int(value("fleet_dropped_total"))
            + int(value("fleet_checksum_validated_total"))
            + re_homed + backlog
        )
        expected_shards = {f"s{i:04d}" for i in range(self.config.shards)}
        missing_shards = sorted(
            expected_shards - {s["shard"] for s in self.shards}
        )
        conservation = {
            "ops": int(ops),
            "accounted": accounted,
            # a fleet with missing shards never balances: their offered
            # logs are unaccounted regardless of what the survivors sum to
            "balanced": accounted == int(ops) and not missing_shards,
            "re_homed_split_ok": re_homed == recovered + failover_dropped,
            "missing_shards": missing_shards,
        }

        self.rollup = {
            "ops": int(ops),
            "validated": int(validated),
            "skipped": int(value("fleet_skipped_total")),
            "dropped": int(value("fleet_dropped_total")),
            "checksum_only": int(value("fleet_checksum_validated_total")),
            "escaped": int(value("fleet_escaped_total")),
            "coverage": coverage,
            "validation_lag": lag_summary,
            "incidents": {"total": sum(incidents.values()), "by_kind": incidents},
            "quarantine": {
                "cores": int(value("fleet_quarantined_cores")),
                "hosts": len(census),
                "census": {host: sorted(cores) for host, cores in sorted(census.items())},
            },
            "degradation": {
                "peak": peak,
                "terminal": dict(sorted(terminal.items())),
                "safe_hold_shards": safe_hold,
            },
            "canary": {
                "issued": int(value("fleet_canary_issued_total")),
                "missed": int(value("fleet_canary_missed_total")),
            },
            "rbv": {
                "remote_logs": int(value("fleet_rbv_remote_logs_total")),
                "remote_bytes": int(value("fleet_rbv_remote_bytes_total")),
            },
            "exposure": exposure.summary(),
            "failover": {
                "hosts_crashed": int(value("fleet_host_crashes_total")),
                "failovers": failovers,
                "re_homed": re_homed,
                "recovered": recovered,
                "dropped": failover_dropped,
                "inherited": int(value("fleet_inherited_total")),
                "lag": failover_lag,
                "exposure": failover_exposure,
            },
            "conservation": conservation,
            "ground": ground_rollup,
        }
        registry.gauge(
            "fleet_hosts", help="simulated hosts"
        ).set(self.config.hosts)
        registry.gauge(
            "fleet_shards", help="simulated shards"
        ).set(self.config.shards)
        registry.gauge(
            "fleet_keys", help="versioned keys placed on the ring"
        ).set(self.config.effective_keys)
        registry.gauge(
            "fleet_users", help="simulated users"
        ).set(self.config.effective_users)
        registry.gauge(
            "fleet_coverage_fraction",
            help="fleet-wide validated fraction of offered logs",
        ).set(coverage)

    # ------------------------------------------------------------------
    @property
    def safe_hold(self) -> bool:
        """Fleet-level SAFE_HOLD: any shard's ladder ended there."""
        return bool(self.rollup["degradation"]["safe_hold_shards"])

    @property
    def degraded(self) -> bool:
        """The run completed on partial results: a host group was lost
        past its bounded retry, or shard summaries are missing.  Maps to
        ``ExitCode.DEGRADED_FLEET`` in the CLI."""
        if any(record["status"] == "lost" for record in self.fan_out):
            return True
        return bool(self.rollup["conservation"]["missing_shards"])

    def to_json(self) -> dict:
        payload = {
            "format": "orthrus-fleet/1",
            "digest": self.digest,
            "topology": self.topology,
            "workload": {
                "keys": self.config.effective_keys,
                "users": self.config.effective_users,
                "ops": self.rollup["ops"],
                "epochs": self.config.epochs,
                "horizon_s": self.config.horizon_s,
            },
            **self.rollup,
            "shards": self.shards,
            "event_count": len(self.events),
            "workers": self.workers,
            "wall_s": round(self.wall_s, 3),
        }
        if self.audit is not None:
            payload["audit"] = self.audit
        # supervision records ride along only when something failed, so
        # healthy artifacts stay identical across worker counts
        if any(record["status"] != "ok" for record in self.fan_out):
            payload["fan_out"] = self.fan_out
            payload["degraded"] = self.degraded
        return payload

    def render(self) -> str:
        rollup = self.rollup
        topo = self.topology
        lag = rollup["validation_lag"]
        lines = [
            "fleet summary",
            (
                f"  topology        : {topo['hosts']} hosts / {topo['shards']} shards"
                f" / {topo['cores']} cores"
                f" (ring {topo['ring_partitions']} partitions,"
                f" spread {topo['ring_spread'][0]:+.1%}..{topo['ring_spread'][1]:+.1%})"
            ),
            (
                f"  workload        : {self.config.effective_keys:,} keys /"
                f" {self.config.effective_users:,} users /"
                f" {rollup['ops']:,} ops over {self.config.epochs} epochs"
            ),
            (
                f"  coverage        : {rollup['coverage']:.1%} validated"
                f" ({rollup['validated']:,} validated,"
                f" {rollup['skipped']:,} sampled out,"
                f" {rollup['dropped']:,} dropped,"
                f" {rollup['checksum_only']:,} checksum-only)"
            ),
        ]
        if lag:
            lines.append(
                f"  validation lag  : p50={format_wall(lag['p50'])}"
                f" p95={format_wall(lag['p95'])}"
                f" p99={format_wall(lag['p99'])}"
                f" max={format_wall(lag['max'])}"
            )
        by_kind = rollup["incidents"]["by_kind"]
        kinds = ", ".join(f"{k}={by_kind[k]}" for k in sorted(by_kind)) or "none"
        lines.append(
            f"  incidents       : {rollup['incidents']['total']} ({kinds})"
        )
        lines.append(
            f"  quarantine      : {rollup['quarantine']['cores']} core(s)"
            f" across {rollup['quarantine']['hosts']} host(s)"
        )
        degradation = rollup["degradation"]
        lines.append(
            f"  degradation     : peak={degradation['peak']}"
            f" safe-hold-shards={len(degradation['safe_hold_shards'])}"
        )
        lines.append(
            f"  canary liveness : {rollup['canary']['issued']} issued /"
            f" {rollup['canary']['missed']} missed"
        )
        lines.append(
            f"  cross-host rbv  : {rollup['rbv']['remote_logs']:,} remote logs,"
            f" {rollup['rbv']['remote_bytes'] / 1e6:.2f} MB on the link"
        )
        failover = rollup.get("failover") or {}
        if failover.get("failovers") or failover.get("hosts_crashed"):
            lag = failover["lag"]
            lag_text = (
                f" lag p95={format_wall(lag['p95'])}" if lag else ""
            )
            lines.append(
                f"  failover        : {failover['hosts_crashed']} host"
                f" crash(es), {failover['failovers']} shard failover(s),"
                f" {failover['re_homed']:,} re-homed"
                f" ({failover['recovered']:,} recovered,"
                f" {failover['dropped']:,} dropped){lag_text}"
            )
        conservation = rollup.get("conservation")
        if conservation is not None:
            status = "balanced" if (
                conservation["balanced"] and conservation["re_homed_split_ok"]
            ) else "IMBALANCED"
            line = (
                f"  conservation    : {status}"
                f" ({conservation['accounted']:,} accounted"
                f" of {conservation['ops']:,} offered)"
            )
            if conservation["missing_shards"]:
                line += (
                    f" — {len(conservation['missing_shards'])}"
                    " shard(s) missing"
                )
            lines.append(line)
        lost = [r for r in self.fan_out if r["status"] != "ok"]
        if lost:
            detail = ", ".join(
                f"group {r['group']} {r['status']}"
                f" ({r['failure']}, {r['attempts']} attempt(s))"
                for r in lost
            )
            lines.append(f"  fan-out         : {detail}")
        exp = rollup.get("exposure")
        if exp and exp["logs"]:
            worst = exp["worst"][0] if exp["worst"] else None
            line = (
                f"  exposure        : {exp['logs']:,} log(s),"
                f" {exp['seconds'] * 1e3:.3f} ms unprotected"
            )
            if worst is not None:
                line += f" (worst shard {worst['subject']})"
            lines.append(line)
        if self.audit is not None:
            summary = self.audit["summary"]
            lines.append(
                f"  drift audit     : {summary['errors']} error(s),"
                f" {summary['warnings']} warning(s)"
                f" over {self.audit['rules_run']} rule-check(s)"
            )
        if rollup["ground"]:
            ground = rollup["ground"]
            lines.append(
                f"  grounded shards : {ground['shards']} DES runs,"
                f" {ground['operations']} ops,"
                f" {ground['detections']} detections,"
                f" lag p95={format_wall(ground['lag']['p95'])}"
            )
        lines.append(
            f"  determinism     : digest {self.digest[:16]}…"
            f" over {len(self.events)} events"
            f" ({self.workers} worker(s), {self.wall_s:.2f}s wall)"
        )
        return "\n".join(lines)
