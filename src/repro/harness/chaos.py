"""The fault-tolerant validation plane: Orthrus under validator faults.

:func:`run_chaos_server` runs the same
:class:`~repro.harness.pipeline.DriverSession` as the plain plane in
:mod:`repro.harness.pipeline` — same set-up, application threads,
observers, validator-side stages and finalisation — and supplies the plane
production actually has: per-core *bounded* queues with work stealing,
validator cores that crash / hang / slow down / lose verdicts
(chaos-injected via :mod:`repro.faultinject.validator_faults`), a
:class:`~repro.validation.watchdog.ValidationWatchdog` that re-dispatches
stranded logs, and a
:class:`~repro.runtime.degradation.DegradationController` that walks the
explicit degradation ladder instead of letting coverage rot silently.
With no faults armed it is functionally the plain plane.

The plane's contract is *conservation*: every closure log produced by
the application reaches exactly one terminal state — validated, skipped
by the sampler, dropped with a reason counter, or degraded to a CRC
checksum fallback — no matter which validator faults fire.  The
:class:`~repro.validation.watchdog.ValidationLedger` enforces it and the
chaos tests assert it.

Liveness under total validation-plane death (every validator crashed or
quarantined) is handled by the watchdog tick: pending logs are settled as
checksum fallbacks so application threads blocked on safe-mode holds are
always released.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.detection import DetectionEvent
from repro.errors import ConfigurationError
from repro.faultinject.validator_faults import (
    ValidatorFaultBox,
    ValidatorFaultKind,
)
from repro.harness.pipeline import DriverSession, PipelineConfig, RunResult
from repro.memory.checksum import checksum_of
from repro.obs.audit import DynamicScalingHonoured
from repro.response.quarantine import QuarantineManager
from repro.runtime.degradation import (
    DegradationController,
    DegradationLevel,
    FaultToleranceConfig,
)
from repro.runtime.sampling import COVERAGE_REASONS
from repro.sim.events import Store
from repro.validation.queues import QueueSet
from repro.validation.watchdog import ValidationLedger, ValidationWatchdog

#: wake-channel token: "one accepted push happened, somebody dequeue"
_TOKEN = object()


@dataclass
class FaultToleranceReport:
    """Everything a chaos run reports about its validation plane."""

    ledger: dict = field(default_factory=dict)
    conserved: bool = True
    #: watchdog counters
    dispatches: int = 0
    timeouts: int = 0
    redispatches: int = 0
    duplicates: int = 0
    exhausted: int = 0
    #: degradation ladder (None when the controller was disabled)
    degradation: dict | None = None
    terminal_level: str = "normal"
    peak_level: str = "normal"
    #: validation cores the watchdog fed into quarantine
    quarantined_validators: list[int] = field(default_factory=list)
    #: armed chaos plan, by kind
    faulted_cores: dict[str, list[int]] = field(default_factory=dict)
    #: digest of the chaos config — the replay handle
    chaos_digest: str | None = None
    queue_drops: dict[str, int] = field(default_factory=dict)

    def summary(self) -> dict:
        return {
            "conserved": self.conserved,
            "ledger": self.ledger,
            "watchdog": {
                "dispatches": self.dispatches,
                "timeouts": self.timeouts,
                "redispatches": self.redispatches,
                "duplicates": self.duplicates,
                "exhausted": self.exhausted,
            },
            "degradation": self.degradation,
            "terminal_level": self.terminal_level,
            "peak_level": self.peak_level,
            "quarantined_validators": self.quarantined_validators,
            "faulted_cores": self.faulted_cores,
            "chaos_digest": self.chaos_digest,
            "queue_drops": self.queue_drops,
        }


def run_chaos_server(scenario, n_ops: int, config: PipelineConfig) -> RunResult:
    """Run the Orthrus deployment with a fault-tolerant validation plane."""
    if config.validation_cores < 1:
        raise ConfigurationError("Orthrus needs at least one validation core")
    for finding in DynamicScalingHonoured().check(config):
        # This plane spawns every validator up front; fail closed rather
        # than silently ignore the request (doctor reports the same rule).
        raise ConfigurationError(finding.message)
    ft = (
        config.fault_tolerance
        if config.fault_tolerance is not None
        else FaultToleranceConfig()
    )
    session = DriverSession.open(scenario, n_ops, config)
    if session.result.crashed:
        return session.result
    env, runtime, obs = session.env, session.runtime, session.obs
    machine, metrics, costs = runtime.machine, session.metrics, config.costs
    responder, val_cores = runtime.responder, session.val_cores
    pending_bytes, deadline = session.pending_bytes, session.deadline
    release, on_step = session.release, session.track_memory

    # ------------------------------------------------------------------
    # validation-plane machinery
    # ------------------------------------------------------------------
    queues = QueueSet(
        len(val_cores),
        capacity=ft.queue_capacity,
        policy=ft.overflow_policy,
        obs=obs,
    )
    queue_index_by_core = {core_id: i for i, core_id in enumerate(val_cores)}
    ledger = ValidationLedger()
    controller = None
    if ft.degradation is not None:
        controller = DegradationController(
            ft.degradation,
            obs=obs,
            # A user-requested safe mode always holds; only let the ladder
            # drive the policy when it is not statically on.
            safe_mode=None if config.safe_mode else session.safe_policy,
        )
    quarantine = (
        responder.quarantine
        if responder is not None
        else QuarantineManager(
            machine=machine,
            scheduler=runtime.scheduler,
            heap=runtime.heap,
            obs=obs,
        )
    )
    chaos = config.validator_faults
    box = ValidatorFaultBox(chaos.plan(val_cores) if chaos is not None else ())
    #: validator cores still consuming work (not crashed/hung/quarantined)
    alive: set[int] = set(val_cores)

    def on_offender(core_id: int, when: float) -> None:
        # An offender already represents ``offender_threshold`` missed
        # deadlines; record them as that many faults so the health score
        # crosses the quarantine threshold in one report.
        newly = False
        for _ in range(max(1, watchdog.config.offender_threshold)):
            newly = quarantine.record_fault(core_id, when) or newly
        if responder is not None:
            responder.report.add(
                when,
                "watchdog-offender",
                f"validation core {core_id} repeatedly missed deadlines"
                + (" -> quarantined" if newly else ""),
            )
        if newly:
            alive.discard(core_id)
            # Hand the quarantined core's backlog to the healthy queues.
            for orphan in queues.drain_queue(queue_index_by_core[core_id]):
                enqueue(orphan, when)

    watchdog = ValidationWatchdog(ft.watchdog, obs=obs, on_offender=on_offender)
    redispatch_pending = [0]
    stop = [False]
    session.attach_observers()
    drift, exposure = session.drift, session.exposure
    if drift is not None:
        # The conservation ledger is the residual-drift signal: work
        # outstanding while nothing settles means the plane is wedged.
        drift.attach_ledger(ledger)

    # ------------------------------------------------------------------
    # terminal-state settlement (the conservation contract)
    # ------------------------------------------------------------------
    def settle_drop(log, reason: str, now: float) -> None:
        """Account a dropped log: window closed, waiter released."""
        ledger.dropped(log.seq, reason)
        session.settle_unvalidated(log, reason, now, runtime.validator.drop)

    def checksum_fallback(log, now: float) -> None:
        """Degraded validation: verify the §3.4 CRC boundary checksums of
        the log's output versions instead of re-executing.  Honest reduced
        coverage — accounted separately from both validation and drops."""
        for vid in log.output_versions:
            if not runtime.heap.has_version(vid):
                continue
            version = runtime.heap.version(vid)
            if version.checksum is None:
                continue
            if checksum_of(version.value) != version.checksum:
                runtime._on_detection(
                    DetectionEvent(
                        kind="checksum",
                        closure=log.closure_name,
                        seq=log.seq,
                        time=now,
                        detail="degraded-mode CRC boundary check failed",
                        app_core=log.core_id,
                    )
                )
        ledger.fallback(log.seq)
        runtime.reclaimer.closure_finished(log.seq)
        if exposure is not None:
            # CRC checks catch bit-flips but not mercurial compute errors:
            # partial coverage, honestly accounted as exposure.
            exposure.record(log.closure_name, "checksum-only", session.stale_s)
        if obs.enabled:
            obs.registry.counter(
                "orthrus_checksum_fallbacks_total",
                help="logs settled by CRC fallback instead of re-execution",
            ).inc()
            obs.spans.record(
                "fallback", log.seq, now, now, closure=log.closure_name
            )
        release(log)

    def enqueue(log, now: float):
        """Push into the bounded queues; settle whatever falls out."""
        outcome = queues.push(log, now)
        if outcome.accepted:
            pending_bytes[0] += log.approx_bytes()
            wake.put(_TOKEN)
        if outcome.dropped is not None:
            if outcome.reason == "evicted-oldest":
                pending_bytes[0] -= outcome.dropped.approx_bytes()
            settle_drop(outcome.dropped, outcome.reason, now)
        return outcome

    wake = Store(env)

    def submit(log):
        """The plane's enqueue for application threads and canaries alike
        (QueueSet stamps ``enqueue_time`` and emits the push telemetry at
        accept), honoring block-producer backpressure."""
        ledger.enqueue(log.seq)
        while True:
            outcome = enqueue(log, env.now)
            if not outcome.would_block:
                return
            if not alive:
                # Nobody will ever free queue space: shed explicitly.
                settle_drop(log, "no-capacity", env.now)
                return
            yield env.timeout(ft.block_poll)

    # ------------------------------------------------------------------
    # validator processes (chaos-faultable)
    # ------------------------------------------------------------------
    def validator_process(core):
        core_id = core.core_id
        queue_index = queue_index_by_core[core_id]
        skip_s = costs.seconds(costs.skip_cycles)
        decide, reexecute, record_verdict = (
            session.decide, session.reexecute, session.record_verdict
        )
        compare_cycles, validation_cycles = (
            session.compare_cycles, session.validation_cycles
        )
        while True:
            token = yield wake.get()
            if not runtime.scheduler.in_service(core_id):
                # Quarantined: hand the token to a healthy peer and leave.
                alive.discard(core_id)
                wake.put(token)
                return
            now = env.now
            fault = box.fault_for(core_id, now)
            kind = fault.kind if fault is not None else None
            log = queues.pop(queue_index, allow_steal=True)
            if kind is ValidatorFaultKind.CRASH:
                # Die mid-dispatch: the popped log is stranded in flight
                # until the watchdog expires it.
                alive.discard(core_id)
                if log is not None:
                    pending_bytes[0] -= log.approx_bytes()
                    watchdog.dispatched(log, core_id, now)
                return
            if log is None:
                # Orphan token (its log was evicted, redistributed, or
                # stolen); nothing to do.
                continue
            pending_bytes[0] -= log.approx_bytes()
            if now > deadline[0]:
                # Past the timely-detection window (drain grace).
                ledger.dropped(log.seq, "deadline")
                session.drop_past_deadline(log, now, runtime.validator.drop)
                continue
            if kind is ValidatorFaultKind.HANG:
                # Block forever holding the dispatched log.
                alive.discard(core_id)
                if obs.enabled:
                    obs.spans.record(
                        "queue.wait", log.seq, log.enqueue_time, now,
                        closure=log.closure_name,
                    )
                watchdog.dispatched(log, core_id, now)
                yield env.event()
                return  # pragma: no cover — the event never fires
            # None for a canary: probes bypass the sampler but still ride
            # the watchdog dispatch path, so a hung or crashed validator
            # strands them — precisely the signal the LivenessMonitor
            # turns into ``canary.missed``.
            decision = decide(log, now)
            if controller is not None and controller.checksum_only:
                # CHECKSUM_ONLY rung: CRC boundary checks, no re-execution.
                busy = sum(
                    costs.checksum_cycles(64)
                    for _ in range(max(1, len(log.output_versions)))
                )
                yield env.timeout(costs.seconds(busy))
                checksum_fallback(log, env.now)
                on_step()
                continue
            shed_for_coverage = (
                decision is not None
                and controller is not None
                and controller.coverage_only
                and decision.reason not in COVERAGE_REASONS
            )
            if decision is not None and (not decision.validate or shed_for_coverage):
                ledger.skipped(log.seq)
                metrics.skipped += 1
                if shed_for_coverage:
                    session.skip(log, now, "coverage-shed", "coverage-shed")
                else:
                    session.skip(log, now, decision.reason)
                yield env.timeout(skip_s)
                release(log)
                on_step()
                continue
            # -- dispatch under the watchdog's deadline ------------------
            watchdog.dispatched(log, core_id, now)
            # The re-execution costs about what the APP run cost; the
            # functional replay happens at completion time below.
            busy = validation_cycles(log, core, log.app_cycles, compare_cycles(log))
            if kind is ValidatorFaultKind.SLOWDOWN:
                busy *= fault.slowdown_factor
            yield env.timeout(costs.seconds(busy))
            if kind is ValidatorFaultKind.VERDICT_LOSS:
                # The work happened; the verdict evaporated.  Leave the
                # dispatch in flight for the watchdog to expire.
                on_step()
                continue
            if not watchdog.completed(log.seq, env.now):
                # The watchdog already expired this dispatch and handed the
                # log to another core: this verdict is a duplicate.
                on_step()
                continue
            outcome = reexecute(log, core)
            ledger.validated(log.seq)
            record_verdict(
                log, outcome, core_id, now,
                level=controller.level.label if controller is not None else "normal",
            )
            on_step()

    # ------------------------------------------------------------------
    # watchdog / degradation tick
    # ------------------------------------------------------------------
    def redispatch_later(log, delay: float):
        yield env.timeout(delay)
        redispatch_pending[0] -= 1
        if ledger.is_terminal(log.seq):
            return  # settled while backing off (e.g. total-death sweep)
        enqueue(log, env.now)

    def ticker():
        prev_drops = prev_attempts = prev_timeouts = prev_dispatches = 0
        while not stop[0]:
            yield env.timeout(ft.check_interval)
            now = env.now
            for dispatch in watchdog.expired(now):
                if obs.enabled:
                    # The dead time on the faulted core, from dispatch to
                    # the watchdog noticing.
                    obs.spans.record(
                        "stalled",
                        dispatch.log.seq,
                        dispatch.dispatched_at,
                        now,
                        closure=dispatch.log.closure_name,
                        core=dispatch.core_id,
                        attempt=dispatch.attempt,
                    )
                delay = watchdog.plan_redispatch(dispatch, now)
                if delay is None:
                    # Retry budget exhausted: degrade, don't strand.
                    checksum_fallback(dispatch.log, now)
                else:
                    redispatch_pending[0] += 1
                    if exposure is not None:
                        # The backoff delay is pure exposure: the log sits
                        # unprotected until its re-enqueue.
                        exposure.record(
                            dispatch.log.closure_name, "redispatch", delay
                        )
                    if obs.enabled:
                        # Backoff before the re-enqueue; the next queue.wait
                        # starts where this ends.
                        obs.spans.record(
                            "redispatch",
                            dispatch.log.seq,
                            now,
                            now + delay,
                            closure=dispatch.log.closure_name,
                        )
                    env.process(redispatch_later(dispatch.log, delay))
            if not alive and (queues.pending or watchdog.in_flight):
                # Total validation-plane death: settle everything via the
                # CRC fallback so blocked producers are released.
                for log in queues.drain():
                    pending_bytes[0] -= log.approx_bytes()
                    checksum_fallback(log, now)
                for dispatch in watchdog.abandon(now):
                    checksum_fallback(dispatch.log, now)
            if controller is not None:
                drops = queues.dropped_total
                attempts = queues.accepted_total + drops
                timeouts = watchdog.timeouts_total
                dispatches = watchdog.dispatches_total
                d_attempts = attempts - prev_attempts
                d_drops = drops - prev_drops
                d_timeouts = timeouts - prev_timeouts
                d_dispatches = dispatches - prev_dispatches
                controller.observe(
                    now,
                    utilization=queues.utilization,
                    drop_rate=(d_drops / d_attempts) if d_attempts else 0.0,
                    timeout_rate=(
                        d_timeouts / max(1, d_dispatches)
                        if (d_timeouts or d_dispatches)
                        else 0.0
                    ),
                )
                prev_drops, prev_attempts = drops, attempts
                prev_timeouts, prev_dispatches = timeouts, dispatches

    # ------------------------------------------------------------------
    session.start_apps(submit)
    for core_id in val_cores:
        env.process(validator_process(machine.core(core_id)))
    env.process(ticker())
    session.start_observers(submit, lambda: stop[0])

    def coordinator():
        yield from session.wait_for_apps()
        hard_stop = deadline[0] + 64 * ft.check_interval
        while env.now < hard_stop:
            settled = ledger.outstanding == 0 and redispatch_pending[0] == 0
            recovered = (
                controller is None
                or controller.level is DegradationLevel.NORMAL
                or not alive
            )
            if settled and recovered:
                break
            yield env.timeout(ft.check_interval)
        stop[0] = True
        # Final sweep: whatever is still unsettled is accounted, never
        # silently stranded.
        queues.shutdown()
        for log in queues.drain():
            pending_bytes[0] -= log.approx_bytes()
            settle_drop(log, "shutdown-drain", env.now)
        for dispatch in watchdog.abandon(env.now):
            checksum_fallback(dispatch.log, env.now)

    env.run(until=env.process(coordinator()))
    result = session.finish()

    faulted: dict[str, list[int]] = {}
    for fault in box.faults:
        faulted.setdefault(fault.kind.value, []).append(fault.core_id)
    result.ft = FaultToleranceReport(
        ledger=ledger.summary(),
        conserved=ledger.conserved,
        dispatches=watchdog.dispatches_total,
        timeouts=watchdog.timeouts_total,
        redispatches=watchdog.redispatches_total,
        duplicates=watchdog.duplicates_total,
        exhausted=watchdog.exhausted_total,
        degradation=controller.summary() if controller is not None else None,
        terminal_level=(
            controller.level.label if controller is not None else "normal"
        ),
        peak_level=(
            controller.peak.label if controller is not None else "normal"
        ),
        quarantined_validators=sorted(
            c for c in quarantine.quarantined if c in val_cores
        ),
        faulted_cores=faulted,
        chaos_digest=chaos.digest() if chaos is not None else None,
        queue_drops=queues.drops,
    )
    return result
