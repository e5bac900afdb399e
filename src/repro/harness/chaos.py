"""The fault-tolerant validation-plane policies: Orthrus under validator faults.

``fault_tolerance`` / ``validator_faults`` choose these for the one
validator loop of :mod:`repro.harness.pipeline` (DESIGN §10.5), through
this module's row of the extension table (:func:`attach`): bounded
per-core queues with work stealing (:class:`QueueAdmission`); a watchdog
:class:`Supervisor` that re-dispatches logs stranded by validator cores
that crash, hang, slow down or lose verdicts (armed via
:mod:`repro.faultinject.validator_faults`) and quarantines the cores that
keep missing deadlines (:class:`OffenderQuarantine`); and the degradation
ladder.

The supervisor's contract is *conservation*: every closure log reaches
exactly one terminal state — validated, skipped, dropped with a reason, or
settled by the CRC checksum fallback — whichever validator faults fire,
through the session's one door (``DriverSession.settle``).  Under total
validation-plane death the watchdog tick settles pending logs as checksum
fallbacks, so safe-mode holds always release.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.detection import DetectionEvent, is_canary_closure
from repro.errors import ConfigurationError
from repro.harness.pipeline import (
    DriverSession,
    PipelineConfig,
    Plane,
    RunResult,
    ValidatorFaultBox,
    run_orthrus_server,
)
from repro.runtime.degradation import (
    DegradationController,
    DegradationLevel,
    FaultToleranceConfig,
)
from repro.sim.events import Store
from repro.validation.queues import QueueSet
from repro.validation.watchdog import ValidationWatchdog

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


class _FaultTolerantAttachment:
    """The fault-tolerant plane in a DES session, and its report."""

    def __init__(self, session: DriverSession):
        self.session = session
        self.supervisor: Supervisor | None = None

    def plane(self) -> Plane:
        plane = fault_tolerant_plane(self.session)
        self.supervisor = plane.supervisor
        return plane

    def finish(self, result: RunResult) -> None:
        result.ft = self.supervisor.report()


def attach(session: DriverSession) -> _FaultTolerantAttachment | None:
    """Extension-table row: the fault-tolerant plane when the run's config
    names ``fault_tolerance`` or ``validator_faults``."""
    config = session.config
    if config.fault_tolerance is None and config.validator_faults is None:
        return None
    return _FaultTolerantAttachment(session)


def fault_tolerant_plane(session: DriverSession) -> Plane:
    """Bounded queues, the watchdog supervisor, the ladder (unless
    ``degradation`` is None) and the armed validator-fault plan."""
    config = session.config
    ft = config.fault_tolerance or FaultToleranceConfig()
    plane = Plane(admission=None)
    plane.admission = QueueAdmission(session, ft, plane)
    if ft.degradation is not None:
        # A user-requested safe mode always holds; only let the ladder
        # drive the policy when it is not statically on.
        plane.ladder = DegradationController(
            ft.degradation, obs=session.obs,
            safe_mode=None if config.safe_mode else session.safe_policy,
        )
    plane.supervisor = Supervisor(session, ft, plane)
    chaos = config.validator_faults
    plane.faults = ValidatorFaultBox(chaos.plan(session.val_cores) if chaos else ())
    return plane


class QueueAdmission:
    """Bounded per-core ``QueueSet`` admission: round-robin placement with
    work stealing, one wake token per accepted push, the overflow policy,
    and block-producer backpressure (DESIGN §10.2)."""

    def __init__(self, session: DriverSession, ft: FaultToleranceConfig, plane: Plane):
        self.session, self.ft, self.plane = session, ft, plane
        self.queues = QueueSet(
            len(session.val_cores),
            capacity=ft.queue_capacity,
            policy=ft.overflow_policy,
            obs=session.obs,
        )
        self.index = {core_id: i for i, core_id in enumerate(session.val_cores)}
        self.wake = Store(session.env)
        self.wait, self.hand_back = self.wake.get, self.wake.put

    def enqueue(self, log, now: float):
        """Push into the bounded queues; settle whatever falls out."""
        outcome = self.queues.push(log, now)
        pending_bytes = self.session.pending_bytes
        if outcome.accepted:
            pending_bytes[0] += log.admitted_bytes
            self.wake.put(_TOKEN)
        if outcome.dropped is not None:
            if outcome.reason == "evicted-oldest":
                pending_bytes[0] -= outcome.dropped.admitted_bytes
            self.session.settle(outcome.dropped, "dropped", now, outcome.reason)
        return outcome

    def submit(self, log):
        """The enqueue for application threads and canaries alike
        (QueueSet stamps ``enqueue_time`` and emits the push telemetry at
        accept), honoring block-producer backpressure."""
        session, env = self.session, self.session.env
        session.ledger.enqueue(log.seq)
        # Measured once: a re-dispatch or a hand-off re-enqueues the same log.
        log.admitted_bytes = log.approx_bytes()
        while True:
            outcome = self.enqueue(log, env.now)
            if not outcome.would_block:
                return
            if not session.serving:
                # Nobody will ever free queue space: shed explicitly.
                session.settle(log, "dropped", env.now, "no-capacity")
                return
            yield env.timeout(self.ft.block_poll)

    submit_canary = submit

    def claim(self, _token, core_id: int):
        return self.queues.pop(self.index[core_id], allow_steal=True)


#: score each missed deadline an offender report stands for adds
FAULT_WEIGHT = 1.0
#: score at which an offending validation core is pulled from service
QUARANTINE_THRESHOLD = 2.0


class OffenderQuarantine:
    """Validation cores the watchdog reports as offenders: each report adds
    to the core's score, and a core whose score reaches
    :data:`QUARANTINE_THRESHOLD` is pulled from the validator pool.  The
    scheduler refuses to empty the pool, so the last validation core stays
    in service, flagged by a ``response.quarantine_refused`` trace event."""

    def __init__(self, runtime, obs):
        self._machine, self._scheduler = runtime.machine, runtime.scheduler
        self._lifecycle = obs.lifecycle
        self._faults: dict[int, int] = {}
        self.quarantined: list[int] = []
        if obs.enabled:
            machine = self._machine
            obs.registry.gauge(
                "orthrus_quarantined_cores",
                help="cores currently removed from service",
            ).set_function(lambda: float(len(machine.quarantined_cores)))

    def record_fault(self, core_id: int, when: float) -> bool:
        """One missed deadline against ``core_id``; True when it tipped the
        core into quarantine."""
        faults = self._faults[core_id] = self._faults.get(core_id, 0) + 1
        score = faults * FAULT_WEIGHT
        if core_id in self.quarantined or score < QUARANTINE_THRESHOLD:
            return False
        try:
            self._scheduler.remove_core(core_id)
        except ConfigurationError:
            # The last validation core: keep it scheduled, but flagged.
            self._lifecycle.quarantine_refused(core_id, score, when)
            return False
        self._machine.core(core_id).quarantined = True
        self.quarantined.append(core_id)
        self._lifecycle.quarantined(core_id, score, faults, when)
        return True


class Supervisor:
    """Deadline supervision (DESIGN §10.3): the watchdog and its tick
    (re-dispatch, the ladder's observations, the total-death sweep),
    offender quarantine, the CRC fallback, and the drain that stops the
    plane once the session's ledger settles.  Under it the validator loop
    advances time first and replays only if the verdict survives; the
    total-death sweep fires once ``session.serving`` is empty."""

    def __init__(self, session: DriverSession, ft: FaultToleranceConfig, plane: Plane):
        self.session, self.ft, self.plane = session, ft, plane
        session.supervised = True
        self.quarantine = OffenderQuarantine(session.runtime, session.obs)
        self.watchdog = ValidationWatchdog(
            ft.watchdog, obs=session.obs, on_offender=self.on_offender
        )
        self.redispatch_pending = 0

    def on_offender(self, core_id: int, when: float) -> None:
        # An offender already represents ``offender_threshold`` missed
        # deadlines; record them as that many faults so the score crosses
        # the quarantine threshold in one report.
        newly = False
        for _ in range(max(1, self.watchdog.config.offender_threshold)):
            newly = self.quarantine.record_fault(core_id, when) or newly
        if newly:
            self.session.serving.discard(core_id)
            # Hand the quarantined core's backlog to the healthy queues;
            # its bytes are already pending, so count them once.
            admission = self.plane.admission
            for orphan in admission.queues.drain_queue(admission.index[core_id]):
                self.session.pending_bytes[0] -= orphan.admitted_bytes
                admission.enqueue(orphan, when)

    def checksum_fallback(self, log, now: float) -> None:
        """Degraded validation: verify the §3.4 CRC boundary checksums of
        the log's output versions instead of re-executing, then settle it
        as a fallback.  Honest reduced coverage — accounted separately from
        both validation and drops."""
        runtime = self.session.runtime
        for vid in log.output_versions:
            if not runtime.heap.has_version(vid):
                continue
            version = runtime.heap.version(vid)
            if version.crc is not None and not version.probe():
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
        self.session.settle(log, "fallback", now)

    def sweep(self, now: float, settle_queued) -> None:
        """Settle everything still queued (``settle_queued(log)``) and
        everything in flight (CRC fallback)."""
        for log in self.plane.admission.queues.drain():
            self.session.pending_bytes[0] -= log.admitted_bytes
            settle_queued(log)
        for dispatch in self.watchdog.abandon(now):
            self.checksum_fallback(dispatch.log, now)

    # -- watchdog / degradation tick -------------------------------------
    def redispatch_later(self, log, delay: float):
        env, enqueue = self.session.env, self.plane.admission.enqueue
        yield env.timeout(delay)
        while enqueue(log, env.now).would_block:  # block-producer: wait for room
            yield env.timeout(self.ft.block_poll)
        self.redispatch_pending -= 1

    def ticker(self):
        session, watchdog, ladder = self.session, self.watchdog, self.plane.ladder
        env, lifecycle, queues = session.env, session.obs.lifecycle, self.plane.admission.queues
        prev_drops = prev_attempts = prev_timeouts = prev_dispatches = 0
        while not session.quiesced:
            yield env.timeout(self.ft.check_interval)
            now = env.now
            for dispatch in watchdog.expired(now):
                log = dispatch.log
                lifecycle.stalled(dispatch, now)
                delay = watchdog.plan_redispatch(dispatch, now)
                if delay is None:
                    # Retry budget exhausted: degrade, don't strand.
                    self.checksum_fallback(log, now)
                    continue
                self.redispatch_pending += 1
                if not is_canary_closure(log.closure_name):
                    # The backoff delay is pure exposure: the log sits
                    # unprotected until its re-enqueue (a canary protects
                    # nothing, DESIGN §11.3).
                    session.expose(log, "redispatch", delay)
                lifecycle.redispatched(log, now, delay)
                env.process(self.redispatch_later(log, delay))
            if not session.serving and (queues.pending or watchdog.in_flight):
                # Total validation-plane death: settle everything via the
                # CRC fallback so blocked producers are released.
                self.sweep(now, lambda log: self.checksum_fallback(log, now))
            if ladder is not None:
                drops = queues.dropped_total
                attempts = queues.accepted_total + drops
                timeouts = watchdog.timeouts_total
                dispatches = watchdog.dispatches_total
                d_attempts = attempts - prev_attempts
                d_drops = drops - prev_drops
                d_timeouts = timeouts - prev_timeouts
                d_dispatches = dispatches - prev_dispatches
                ladder.observe(
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

    def drain(self):
        """Coordinator tail once the apps are done: wait (bounded) for the
        ledger to settle and the ladder to recover, then stop the plane and
        account whatever is left — never silently stranded."""
        session, ladder = self.session, self.plane.ladder
        env = session.env
        hard_stop = session.deadline[0] + 64 * self.ft.check_interval
        while env.now < hard_stop:
            settled = session.ledger.outstanding == 0 and self.redispatch_pending == 0
            recovered = (
                ladder is None
                or ladder.level is DegradationLevel.NORMAL
                or not session.serving
            )
            if settled and recovered:
                break
            yield env.timeout(self.ft.check_interval)
        session.quiesced = True
        self.plane.admission.queues.shutdown()
        self.sweep(env.now, lambda log: session.settle(
            log, "dropped", env.now, "shutdown-drain"
        ))
        while self.redispatch_pending:  # each re-enqueue now drops as "shutdown"
            yield env.timeout(self.ft.check_interval)

    def report(self) -> FaultToleranceReport:
        ladder, watchdog, plane = self.plane.ladder, self.watchdog, self.plane
        ledger, chaos = self.session.ledger, self.session.config.validator_faults
        faulted: dict[str, list[int]] = {}
        for fault in plane.faults.faults:
            faulted.setdefault(fault.kind.value, []).append(fault.core_id)
        return FaultToleranceReport(
            ledger=ledger.summary(),
            conserved=ledger.conserved,
            dispatches=watchdog.dispatches_total,
            timeouts=watchdog.timeouts_total,
            redispatches=watchdog.redispatches_total,
            duplicates=watchdog.duplicates_total,
            exhausted=watchdog.exhausted_total,
            degradation=ladder.summary() if ladder is not None else None,
            terminal_level=ladder.level.label if ladder is not None else "normal",
            peak_level=ladder.peak.label if ladder is not None else "normal",
            quarantined_validators=sorted(self.quarantine.quarantined),
            faulted_cores=faulted,
            chaos_digest=chaos.digest() if chaos is not None else None,
            queue_drops=plane.admission.queues.drops,
        )


def run_chaos_server(scenario, n_ops: int, config: PipelineConfig) -> RunResult:
    """The Orthrus deployment on the fault-tolerant plane (a default
    ``FaultToleranceConfig`` unless the config names one)."""
    return run_orthrus_server(scenario, n_ops, replace(
        config, fault_tolerance=config.fault_tolerance or FaultToleranceConfig()
    ))
