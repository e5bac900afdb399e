"""Per-shard validation-plane simulator (the worker-side unit of work).

Each shard runs an *epoch-driven aggregate model* of one Orthrus
deployment slice: a bounded validation queue fed by that shard's slice of
the fleet workload, a validator pool whose capacity shrinks as mercurial
cores are quarantined, the §6 degradation ladder
(:class:`~repro.runtime.degradation.DegradationController` reused
verbatim as the per-shard state machine), cross-host remote validation
("spill") priced by the :class:`~repro.sim.costs.CostModel` link model,
and canary liveness probes.  A deterministic subset of shards is
additionally *grounded*: it runs the real DES memcached/lsmtree server
through :func:`repro.harness.pipeline.run_orthrus_server`, tying the
aggregate statistics to the byte-level runtime the rest of the repo
tests.

Determinism contract (what the cross-shard merge relies on): a shard's
result is a pure function of ``(ShardPlan, FleetConfig)``.  Every random
draw comes from :func:`repro.fleet.streams.shard_rng` streams namespaced
by (host, shard, purpose), so neither worker count, nor worker identity,
nor the existence of other shards can perturb it.

The queue model follows §3.5's coverage split: ``min_coverage`` of each
epoch's logs is *coverage-critical* (never-validated sites — must queue
and eventually validate), the rest is steady-state resampling served
opportunistically from spare capacity and shed first.  A healthy shard
therefore keeps its queue near empty even when demand exceeds capacity —
sampling is the design point, not overload — and the ladder only walks
when even the critical slice cannot be served.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.fleet.chaos import ShardChaos
from repro.fleet.streams import shard_rng
from repro.fleet.topology import FleetConfig
from repro.obs.audit import Finding, Severity
from repro.obs.exposure import ExposureLedger
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import TimeSeries
from repro.runtime.degradation import DegradationController, DegradationLevel

__all__ = ["ShardPlan", "ShardResult", "simulate_shard", "AVG_CLOSURE_CYCLES"]

#: mean re-execution cycles per closure in the aggregate model (the DES
#: apps measure ~1.5-3k cycles/closure; the exact value only scales
#: capacity, the *relative* structure is what matters)
AVG_CLOSURE_CYCLES = 2000

#: per-epoch series kept per shard (merged fleet-wide by the runner);
#: names deliberately match the single-host timeline vocabulary so the
#: ``timeline`` CLI renders fleet artifacts unchanged
SHARD_SERIES = (
    ("validation_lag_p95", "s"),
    ("queue_depth", "logs"),
    ("coverage_fraction", "fraction"),
    ("quarantined_cores", "cores"),
    ("degradation_level", "level"),
    ("rbv_remote_rate", "fraction"),
)


@dataclass(frozen=True)
class ShardPlan:
    """Everything one shard needs to simulate itself (picklable)."""

    shard_id: int
    host_id: int
    shard_name: str
    host_name: str
    app_name: str
    #: keyspace slice and user population placed on this shard by the ring
    keys: int
    users: int
    #: total data operations over the whole run (pre-``load_factor``)
    ops: int
    app_cores: tuple[int, ...]
    validator_cores: tuple[int, ...]
    #: local cores quarantined before the run (operator input)
    quarantined_at_start: tuple[int, ...]
    #: local cores that are silently defective (fleet fault population,
    #: drawn once by the planner from the host-namespaced stream)
    defective_cores: tuple[int, ...]
    peer_host: int
    #: whether this shard also runs the real DES server (grounding)
    ground: bool
    #: compiled infrastructure-chaos manifest (None = healthy; see
    #: repro.fleet.chaos — all cross-shard failover effects arrive here
    #: precomputed, keeping the shard pure in (plan, config))
    chaos: ShardChaos | None = None


@dataclass
class ShardResult:
    """A shard's contribution to the fleet merge (picklable)."""

    shard_id: int
    host_id: int
    #: (t, host_id, shard_id, local_seq, kind, payload) tuples, t-ordered
    events: list = field(default_factory=list)
    #: orthrus-metrics/1 snapshot of the shard-local registry
    snapshot: dict = field(default_factory=dict)
    #: series name -> TimeSeries.to_dict()
    series: dict = field(default_factory=dict)
    summary: dict = field(default_factory=dict)
    #: terminal drift findings (``Finding.to_dict`` records) — merged
    #: fleet-wide by the runner into the report's audit payload
    audit: list = field(default_factory=list)
    ground: dict | None = None
    ground_metrics: object | None = None


def _jittered_count(rng, expected: float) -> int:
    """Round an expected event count to an integer, with the fractional
    part resolved by one namespaced coin flip — unbiased and cheap, and
    (unlike a true binomial sampler) a single draw regardless of n."""
    whole = int(expected)
    if rng.random() < expected - whole:
        whole += 1
    return whole


def _arrivals(plan: ShardPlan, config: FleetConfig) -> list[int]:
    """Per-epoch demand: a diurnal profile (phase-shifted per shard so
    the fleet's peaks don't align) with multiplicative jitter, integer-
    normalized to ``plan.ops * load_factor`` total."""
    rng = shard_rng(config.seed, plan.host_id, plan.shard_id, "load")
    phase = 2.0 * math.pi * plan.shard_id / max(1, config.shards)
    weights = []
    for epoch in range(config.epochs):
        diurnal = 1.0 + 0.35 * math.sin(
            2.0 * math.pi * epoch / config.epochs + phase
        )
        weights.append(diurnal * (0.9 + 0.2 * rng.random()))
    total = max(0, int(round(plan.ops * config.load_factor)))
    scale = total / sum(weights)
    arrivals = [int(w * scale) for w in weights]
    for i in range(total - sum(arrivals)):
        arrivals[i % config.epochs] += 1
    return arrivals


def simulate_shard(plan: ShardPlan, config: FleetConfig) -> ShardResult:
    """Run one shard's epoch model; pure in (plan, config)."""
    rng = shard_rng(config.seed, plan.host_id, plan.shard_id, "sim")
    registry = MetricsRegistry()
    labels = {"host": plan.host_name}
    exposure = ExposureLedger(
        registry=registry, subject_label="shard", extra_labels=labels
    )
    series = {
        name: TimeSeries(name, capacity=128, reservoir=8, unit=unit)
        for name, unit in SHARD_SERIES
    }
    result = ShardResult(shard_id=plan.shard_id, host_id=plan.host_id)
    seq = 0

    def emit(t: float, kind: str, **payload) -> None:
        nonlocal seq
        result.events.append((t, plan.host_id, plan.shard_id, seq, kind, payload))
        seq += 1

    costs = config.costs
    per_validation_s = costs.seconds(
        costs.validation_dispatch_cycles + AVG_CLOSURE_CYCLES
    )
    rate_per_core = max(1, int(config.epoch_s / per_validation_s))
    remote_penalty_s = 2.0 * costs.network_transfer_s(config.spill_bytes)

    pool = list(plan.validator_cores)
    quarantined: set[int] = set(plan.quarantined_at_start)
    defective = set(plan.defective_cores)
    detections_by_core: dict[int, int] = {}
    ladder = DegradationController()
    seen_transitions = 0
    queue = 0
    spilling = False

    totals = {
        "ops": 0, "validated": 0, "skipped": 0, "dropped": 0,
        "checksum_only": 0, "detections": 0, "escaped": 0,
        "timeouts": 0, "canary_issued": 0, "canary_missed": 0,
        "remote_logs": 0, "remote_bytes": 0, "quarantines": 0,
        # failover conservation buckets (zero on a healthy fleet)
        "re_homed": 0, "failover_recovered": 0, "failover_dropped": 0,
        "inherited": 0, "diverted": 0, "backlog": 0, "host_crashes": 0,
    }
    lag_hist = registry.histogram(
        "fleet_validation_lag_seconds",
        help="validation lag across fleet shards (log enqueue to verdict)",
    )
    arrivals = _arrivals(plan, config)

    # -- infrastructure chaos (compiled manifest; None on healthy runs:
    # every chaos branch below is guarded so the healthy path replays the
    # exact pre-chaos instruction and RNG sequence) ----------------------
    chaos = plan.chaos
    down_epochs = frozenset(chaos.down_epochs) if chaos else frozenset()
    idle_epochs = (
        down_epochs | frozenset(chaos.probation_epochs)
        if chaos else frozenset()
    )
    #: live failovers: [CrashWindow, pending re-homed backlog]
    active_failovers: list[list] = []
    failover_hist = None
    if chaos is not None:
        failover_hist = registry.histogram(
            "fleet_failover_lag_seconds",
            help="host death to re-dispatch of re-homed backlog, per log",
        )
        series["failover_lag"] = TimeSeries(
            "failover_lag", capacity=128, reservoir=8, unit="s"
        )
        if chaos.primary:
            series["hosts_down"] = TimeSeries(
                "hosts_down", capacity=128, reservoir=8, unit="hosts"
            )
    prev_route = plan.peer_host
    prev_straggle = 1.0

    def quarantine(t: float, core: int, role: str) -> None:
        quarantined.add(core)
        totals["quarantines"] += 1
        emit(
            t, "quarantine",
            core=plan.host_id * config.cores_per_host + core,
            local_core=core, role=role,
            detections=detections_by_core.get(core, 0),
        )

    for epoch in range(config.epochs):
        t = (epoch + 1) * config.epoch_s

        # -- chaos: host transitions + re-homed backlog drains -----------
        if chaos is not None:
            for window in chaos.crashes:
                if window.crash_epoch == epoch:
                    if chaos.primary:
                        totals["host_crashes"] += 1
                        emit(t, "fleet.host_down", host=plan.host_name,
                             epoch=epoch, restart=window.restart_epoch)
                    totals["re_homed"] += queue
                    emit(t, "fleet.failover", re_homed=queue,
                         recipients=[
                             [name, round(frac, 4)]
                             for name, frac in window.recipients
                         ],
                         attempts=len(window.drain_epochs))
                    if queue and window.drain_epochs:
                        active_failovers.append([window, queue])
                    elif queue:
                        # budget 0 or a crash at the horizon: dropped
                        # with reason, never silently lost
                        totals["failover_dropped"] += queue
                        exposure.record(plan.shard_name, "failover",
                                        config.horizon_s - t, queue)
                        emit(t, "fleet.failover.drop", count=queue,
                             reason="retry budget exhausted")
                    queue = 0
                if window.restart_epoch == epoch and chaos.primary:
                    emit(t, "fleet.host_up", host=plan.host_name,
                         epoch=epoch, probation=config.probation_epochs)
                if window.readmit_epoch == epoch and chaos.primary:
                    emit(t, "fleet.readmit", host=plan.host_name, epoch=epoch)
            for state in list(active_failovers):
                window, pending = state
                if epoch not in window.drain_epochs:
                    continue
                lag = (epoch - window.crash_epoch) * config.epoch_s
                drained = min(
                    pending, max(1, window.recovery_pool * rate_per_core // 4)
                )
                totals["failover_recovered"] += drained
                failover_hist.record_many(lag, drained)
                exposure.record(plan.shard_name, "failover", lag, drained)
                series["failover_lag"].append(t, lag)
                state[1] = pending - drained
                emit(t, "fleet.redispatch", drained=drained,
                     remaining=state[1],
                     lag_epochs=epoch - window.crash_epoch)
                if state[1] == 0:
                    active_failovers.remove(state)
                elif epoch == window.drain_epochs[-1]:
                    totals["failover_dropped"] += state[1]
                    exposure.record(plan.shard_name, "failover",
                                    config.horizon_s - t, state[1])
                    emit(t, "fleet.failover.drop", count=state[1],
                         reason="retry budget exhausted")
                    active_failovers.remove(state)
            if chaos.primary:
                series["hosts_down"].append(
                    t, 1.0 if epoch in down_epochs else 0.0
                )
            if epoch in idle_epochs:
                # dead (or on probation): arrivals divert to the ring
                # recipients, which account them — conservation holds
                # fleet-wide, not per-shard
                totals["diverted"] += arrivals[epoch]
                continue

        demand = arrivals[epoch]
        if chaos is not None and chaos.inherited_ops:
            inherited = chaos.inherited_ops[epoch]
            if inherited:
                demand += inherited
                totals["inherited"] += inherited
            for donor_id, start, end, total in chaos.inherited_sources:
                if start == epoch:
                    emit(t, "fleet.inherit", donor=donor_id, ops=total,
                         start=start, end=end)
        totals["ops"] += demand
        must = int(demand * config.min_coverage)

        # -- chaos: spill reroute + straggler windows --------------------
        peer = plan.peer_host
        penalty_mult = 1.0
        straggle = 1.0
        if chaos is not None:
            if chaos.straggle:
                straggle = chaos.straggle[epoch]
                if straggle != prev_straggle:
                    emit(t, "fleet.straggle", factor=straggle)
                    prev_straggle = straggle
            if chaos.spill_route:
                peer = chaos.spill_route[epoch]
                penalty_mult = chaos.spill_penalty[epoch]
                if peer != prev_route:
                    if peer < 0:
                        emit(t, "fleet.partition", peer=plan.peer_host)
                    elif peer == plan.peer_host:
                        emit(t, "fleet.partition.heal", route=peer)
                    else:
                        emit(t, "fleet.partition", peer=plan.peer_host,
                             route=peer, penalty=round(penalty_mult, 3))
                    prev_route = peer

        active = [c for c in pool if c not in quarantined]
        cap_local = (
            0 if ladder.checksum_only
            else int(len(active) * rate_per_core * straggle)
        )
        # Cross-host spill: quarantine-induced deficit is served by the
        # ring-successor host's spare validators at half throughput (the
        # closure log and versions cross the link both ways).
        deficit = len(pool) - len(active)
        cap_remote = 0
        if (
            deficit > 0
            and peer != plan.host_id
            and peer >= 0
            and not ladder.checksum_only
        ):
            cap_remote = max(1, deficit * rate_per_core // 2)
        if (cap_remote > 0) != spilling:
            spilling = cap_remote > 0
            emit(t, "spill.open" if spilling else "spill.close",
                 peer=peer if spilling else plan.peer_host, deficit=deficit)
        capacity = cap_local + cap_remote

        queue += must
        validated_critical = min(queue, capacity)
        queue -= validated_critical
        spare = capacity - validated_critical
        opportunistic_pool = demand - must
        opportunistic = (
            0 if ladder.coverage_only else min(opportunistic_pool, spare)
        )
        validated = validated_critical + opportunistic
        # Conservation: each offered log lands in exactly ONE terminal
        # bucket.  Under CHECKSUM_ONLY the shed slice gets CRC-only
        # coverage (it is not "sampled out" — the sampler is off), while
        # the must slice stays queued for catch-up and is accounted when
        # it validates, drops, or survives as backlog.
        if ladder.checksum_only:
            checksum_only = opportunistic_pool - opportunistic
            skipped = 0
        else:
            checksum_only = 0
            skipped = opportunistic_pool - opportunistic
        partitioned = 0
        if deficit > 0 and peer < 0 and not ladder.checksum_only and queue:
            # the spill path is severed and no reroute survives: the
            # share the peer would have served falls back to local
            # checksum-only coverage instead of stalling critical logs
            # behind a dead link
            partitioned = min(queue, max(1, deficit * rate_per_core // 2))
            queue -= partitioned
            checksum_only += partitioned
            emit(t, "fleet.spill.fallback", count=partitioned)
        remote = max(0, validated - cap_local)
        dropped = max(0, queue - config.queue_capacity)
        queue = min(queue, config.queue_capacity)

        expected_wait = (
            (queue / capacity) * config.epoch_s if capacity else math.inf
        )
        timed_out = queue if (
            queue and expected_wait > config.watchdog_deadline
        ) else 0

        # -- exposure windows (DESIGN §14): every log left unvalidated
        # opens a measured span of vulnerability.  A skip lasts one
        # epoch (the next resampling opportunity); a drop exposes the
        # key for the rest of the run; a stall lasts until the queue
        # drains or the run ends, whichever is sooner. ------------------
        remaining = config.horizon_s - t
        exposure.record(plan.shard_name, "sampled-out", config.epoch_s, skipped)
        exposure.record(plan.shard_name, "queue-drop", remaining, dropped)
        exposure.record(
            plan.shard_name, "checksum-only", config.epoch_s,
            checksum_only - partitioned,
        )
        exposure.record(
            plan.shard_name, "partitioned", config.epoch_s, partitioned
        )
        exposure.record(
            plan.shard_name, "stalled", min(expected_wait, remaining), timed_out
        )

        lag = per_validation_s + (
            (queue / capacity) * config.epoch_s if capacity else config.epoch_s
        )
        if remote:
            lag += remote_penalty_s * penalty_mult * (remote / max(1, validated))
        if validated:
            lag_hist.record(lag * (0.7 + 0.3 * rng.random()))
            lag_hist.record(lag)
            lag_hist.record(lag * (1.4 + 0.4 * rng.random()))

        # -- fault population: corruptions, detections, quarantine -------
        coverage = validated / demand if demand else 0.0
        epoch_detections = 0
        epoch_escaped = 0
        for core in plan.app_cores:
            if core not in defective or core in quarantined:
                continue
            ops_on_core = demand / max(1, len(plan.app_cores))
            corrupted = _jittered_count(
                rng, ops_on_core * config.corruption_rate
            )
            caught = _jittered_count(rng, corrupted * coverage)
            caught = min(caught, corrupted)
            epoch_detections += caught
            epoch_escaped += corrupted - caught
            if caught:
                count = detections_by_core.get(core, 0) + caught
                detections_by_core[core] = count
                if count >= config.detection_threshold and core not in quarantined:
                    quarantine(t, core, "app")
        for core in active:
            if core not in defective:
                continue
            validated_on_core = validated / max(1, len(active))
            caught = _jittered_count(
                rng, validated_on_core * config.corruption_rate
            )
            if caught:
                # Arbitration (majority-of-three on a remote third core)
                # confirms the *validator* is the liar; the round trip is
                # paid on the link model.
                epoch_detections += caught
                totals["remote_logs"] += caught
                totals["remote_bytes"] += caught * 2 * config.spill_bytes
                count = detections_by_core.get(core, 0) + caught
                detections_by_core[core] = count
                if count >= config.detection_threshold:
                    quarantine(t, core, "validator")
        if epoch_detections or epoch_escaped:
            emit(t, "detections", count=epoch_detections,
                 escaped=epoch_escaped, coverage=round(coverage, 4))

        # -- canary liveness --------------------------------------------
        if config.canary_every and epoch % config.canary_every == 0:
            totals["canary_issued"] += 1
            if ladder.checksum_only or capacity == 0:
                totals["canary_missed"] += 1
                emit(t, "canary.missed", level=ladder.level.label)

        # -- degradation ladder -----------------------------------------
        ladder.observe(
            t,
            utilization=queue / config.queue_capacity,
            drop_rate=dropped / max(1, must),
            timeout_rate=min(1.0, timed_out / max(1, must)),
        )
        for transition in ladder.history[seen_transitions:]:
            emit(t, "degradation", frm=transition.frm.label,
                 to=transition.to.label, reason=transition.reason)
        seen_transitions = len(ladder.history)

        totals["validated"] += validated
        totals["skipped"] += skipped
        totals["dropped"] += dropped
        totals["checksum_only"] += checksum_only
        totals["detections"] += epoch_detections
        totals["escaped"] += epoch_escaped
        totals["timeouts"] += timed_out
        totals["remote_logs"] += remote
        totals["remote_bytes"] += remote * 2 * config.spill_bytes

        run_coverage = totals["validated"] / max(1, totals["ops"])
        series["validation_lag_p95"].append(t, lag * 1.6)
        series["queue_depth"].append(t, float(queue))
        series["coverage_fraction"].append(t, run_coverage)
        series["quarantined_cores"].append(t, float(len(quarantined)))
        series["degradation_level"].append(t, float(ladder.level))
        series["rbv_remote_rate"].append(t, remote / max(1, validated))

    horizon = config.horizon_s

    # -- conservation residuals ------------------------------------------
    # every offered log must land in a terminal bucket; what is still
    # queued at the horizon is accounted as backlog, and any failover
    # state the drain schedule somehow left open (unreachable: schedules
    # are horizon-clipped and the final attempt drops the remainder) is
    # folded into failover_dropped rather than lost
    totals["backlog"] = queue
    for _window, pending in active_failovers:
        totals["failover_dropped"] += pending

    # -- grounding: run the real DES server for this shard ---------------
    if plan.ground:
        result.ground, result.ground_metrics = _ground_run(plan, config)
        result.ground["shard"] = plan.shard_name
        emit(horizon, "ground.digest", **{
            k: result.ground[k]
            for k in ("app", "digest", "operations", "validated", "detections")
        })

    # -- shard summary (always the shard's last event: the merge digest
    # covers every counter, so any divergence anywhere is caught) --------
    summary = {
        "shard": plan.shard_name,
        "host": plan.host_name,
        "app": plan.app_name,
        "keys": plan.keys,
        "users": plan.users,
        **totals,
        "coverage": round(totals["validated"] / max(1, totals["ops"]), 6),
        "quarantined_cores": sorted(
            plan.host_id * config.cores_per_host + c for c in quarantined
        ),
        "pre_quarantined": len(plan.quarantined_at_start),
        "terminal_level": ladder.level.label,
        "peak_level": ladder.peak.label,
        "safe_hold": ladder.level >= DegradationLevel.SAFE_HOLD,
    }
    emit(horizon, "shard.summary", **{
        k: summary[k] for k in (
            "shard", "host", "ops", "validated", "skipped", "dropped",
            "checksum_only", "detections", "escaped", "quarantines",
            "canary_missed", "remote_logs", "re_homed", "backlog",
            "terminal_level", "peak_level",
        )
    })
    result.summary = summary

    # -- shard-local drift findings (never event-emitted: the audit
    # artifact rides beside the digest-covered event stream) -------------
    findings = []
    if totals["ops"] and summary["coverage"] < config.min_coverage:
        findings.append(Finding(
            rule="drift-coverage-floor",
            severity=Severity.ERROR,
            subject=plan.shard_name,
            message=(
                f"observed coverage {summary['coverage']:.4f} below the "
                f"declared floor {config.min_coverage:g}"
            ),
            remediation="raise validator capacity or lower min_coverage",
            observed=(
                ("coverage", summary["coverage"]),
                ("floor", config.min_coverage),
            ),
        ))
    if totals["canary_missed"]:
        findings.append(Finding(
            rule="drift-canary-liveness",
            severity=Severity.ERROR,
            subject=plan.shard_name,
            message=(
                f"{totals['canary_missed']} of {totals['canary_issued']} "
                "canary probe(s) missed"
            ),
            remediation=(
                "restore validator capacity; the shard cannot prove the "
                "validation plane is live"
            ),
            observed=(
                ("issued", totals["canary_issued"]),
                ("missed", totals["canary_missed"]),
            ),
        ))
    result.audit = [f.to_dict() for f in findings]

    # -- registry export --------------------------------------------------
    counter_pairs = (
        ("fleet_ops_total", "ops", "data operations offered fleet-wide"),
        ("fleet_validated_total", "validated", "logs validated (local + remote)"),
        ("fleet_skipped_total", "skipped", "steady-state logs shed by the sampler"),
        ("fleet_dropped_total", "dropped", "coverage-critical logs dropped (overflow)"),
        ("fleet_checksum_validated_total", "checksum_only",
         "logs covered only by CRC under CHECKSUM_ONLY"),
        ("fleet_escaped_total", "escaped", "corruptions missed by sampling"),
        ("fleet_timeouts_total", "timeouts", "watchdog deadline overruns"),
        ("fleet_canary_issued_total", "canary_issued", "canary probes issued"),
        ("fleet_canary_missed_total", "canary_missed", "canary probes missed"),
        ("fleet_rbv_remote_logs_total", "remote_logs",
         "closure logs validated on a remote host"),
        ("fleet_rbv_remote_bytes_total", "remote_bytes",
         "bytes shipped for cross-host validation"),
    )
    for name, key, help_text in counter_pairs:
        registry.counter(name, labels, help=help_text).inc(totals[key])
    if chaos is not None:
        # failover counters exist only on chaos runs so healthy-fleet
        # snapshots stay byte-identical to the pre-chaos model
        failover_pairs = (
            ("fleet_host_crashes_total", "host_crashes",
             "planned host crashes executed"),
            ("fleet_re_homed_total", "re_homed",
             "queued logs re-homed off dead hosts"),
            ("fleet_failover_recovered_total", "failover_recovered",
             "re-homed logs recovered by re-dispatch"),
            ("fleet_failover_dropped_total", "failover_dropped",
             "re-homed logs dropped after the retry budget"),
            ("fleet_inherited_total", "inherited",
             "logs inherited from dead shards via the ring remap"),
            ("fleet_diverted_total", "diverted",
             "own arrivals diverted to recipients while down"),
        )
        for name, key, help_text in failover_pairs:
            registry.counter(name, labels, help=help_text).inc(totals[key])
    registry.counter(
        "fleet_detections_total", {**labels, "kind": "sdc"},
        help="confirmed SDC detections",
    ).inc(totals["detections"])
    for kind, amount in (
        ("detection", totals["detections"]),
        ("quarantine", totals["quarantines"]),
        ("canary-miss", totals["canary_missed"]),
        ("degradation", seen_transitions),
        ("safe-hold", 1 if summary["safe_hold"] else 0),
    ):
        if amount:
            registry.counter(
                "fleet_incidents_total", {"kind": kind},
                help="fleet incidents by kind",
            ).inc(amount)
    registry.gauge(
        "fleet_quarantined_cores", labels,
        help="cores quarantined at end of run",
    ).set(len(quarantined))
    registry.gauge(
        "fleet_safe_hold_shards",
        help="shards whose ladder ended in SAFE_HOLD",
    ).set(1 if summary["safe_hold"] else 0)
    registry.gauge(
        "fleet_versioned_bytes", labels,
        help="approx. versioned-heap footprint (64B/key + log headroom)",
    ).set(plan.keys * 96)

    result.snapshot = registry.snapshot()
    result.series = {name: s.to_dict() for name, s in series.items()}
    return result


def _ground_run(plan: ShardPlan, config: FleetConfig):
    """One real DES server run for a grounded shard (imported lazily so
    plain aggregate simulations never pay the harness import)."""
    from repro.determinism import derive_seed
    from repro.harness.pipeline import PipelineConfig, run_orthrus_server
    from repro.harness.scenarios import lsmtree_scenario, memcached_scenario

    scenario = (
        memcached_scenario() if plan.app_name == "memcached" else lsmtree_scenario()
    )
    seed = derive_seed(config.seed, "fleet", "ground", plan.shard_id)
    run = run_orthrus_server(
        scenario, config.ground_ops, PipelineConfig(seed=seed, costs=config.costs)
    )
    ground = {
        "app": plan.app_name,
        "digest": run.digest,
        "operations": run.metrics.operations,
        "validated": run.metrics.validated,
        "detections": run.metrics.detections,
        "lag": run.metrics.validation_latency.summary(),
    }
    return ground, run.metrics
