"""Liveness canaries: proving the validation plane is still detecting.

A run that reports zero detections is ambiguous — either the hardware was
healthy or the detector was dead.  Dixit et al. resolve the ambiguity in
production fleets by continuously injecting probes with *known* answers;
this module does the same for the validation plane.  The
:class:`CanaryScheduler` mints closure logs whose recorded return value is
deliberately corrupted relative to what re-execution will produce, so a
live validator MUST raise a ``mismatch`` detection for every canary.  The
:class:`LivenessMonitor` holds each issued canary to a virtual-time
deadline: a canary that is not detected in time becomes a
``canary.missed`` event in the :class:`~repro.detection.DetectionReport`
— the alarm that fires when validators hang, queues wedge, or the
dispatch loop silently dies, *before* the degradation ladder notices the
backpressure.

Canary closures are namespaced (``canary.probe`` from caller
``canary``) and carry ``core_id == -1``:

* samplers must always validate them (a skipped canary proves nothing),
* detection accounting keeps them out of organic coverage numbers
  (:func:`repro.detection.is_canary_closure`), and
* incident response ignores them — a canary mismatch is the probe
  *working*, not a faulty core.

Schedules are deterministic: nonces come from
:func:`repro.determinism.derived_rng` under the run seed, so the same
seed yields the same canary stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.closures.log import ClosureLog
from repro.detection import CANARY_PREFIX, DetectionEvent, is_canary_closure
from repro.determinism import derived_rng
from repro.errors import ConfigurationError
from repro.obs.observability import NULL_OBS

__all__ = [
    "CANARY_CLOSURE",
    "CANARY_CALLER",
    "CanaryConfig",
    "CanaryScheduler",
    "LivenessMonitor",
    "canary_probe",
]

CANARY_CLOSURE = CANARY_PREFIX + "probe"
CANARY_CALLER = "canary"


def canary_probe(nonce: int) -> tuple[str, int]:
    """The canary closure body: pure, heap-free, trivially re-executable.

    Re-execution returns ``("canary", nonce)``; the scheduler records a
    *different* retval on the log, so comparison must diverge.
    """
    return ("canary", nonce)


@dataclass(slots=True)
class CanaryConfig:
    """Injection cadence and detection deadline for canary probes."""

    #: virtual seconds between injected canaries (first at one period)
    period: float = 200e-6
    #: detection deadline per canary; a canary not detected within
    #: ``deadline`` of issue raises ``canary.missed``.  Defaults to 3x the
    #: period when unset.
    deadline: float = 0.0

    def __post_init__(self):
        if self.deadline <= 0.0:
            self.deadline = 3.0 * self.period
        self.validate()

    def violations(self) -> list[str]:
        found = []
        if not 0 < self.period < math.inf:
            found.append(f"canary period must be positive and finite, got {self.period}")
        if not 0 < self.deadline < math.inf:
            found.append(
                f"canary deadline must be positive and finite, got {self.deadline}"
            )
        return found

    def validate(self) -> None:
        for message in self.violations():
            raise ConfigurationError(message)


class CanaryScheduler:
    """Mints deterministic known-corrupt closure logs.

    Each canary's recorded ``retval`` flips a bit of the nonce the probe
    will actually return, so validation re-execution is guaranteed to
    mismatch — a detection with a known arrival time, which is what makes
    missing it meaningful.
    """

    def __init__(self, config: CanaryConfig, seed: int):
        self.config = config
        self._rng = derived_rng(seed, "canary")
        self.minted = 0

    def next_log(self, seq: int, now: float) -> ClosureLog:
        """Build the next canary log, stamped at virtual time ``now``."""
        nonce = self._rng.getrandbits(32)
        self.minted += 1
        return ClosureLog(
            seq=seq,
            closure_name=CANARY_CLOSURE,
            caller=CANARY_CALLER,
            func=canary_probe,
            args=(nonce,),
            # The deliberate corruption: recorded retval != re-executed
            # retval.  No heap objects, versions, or syscalls are involved,
            # so the probe is invisible to reclamation and the app state.
            retval=("canary", nonce ^ 0x5DC),
            start_time=now,
            end_time=now,
            core_id=-1,
        )


@dataclass(slots=True)
class _Outstanding:
    seq: int
    issued_at: float
    deadline_at: float


@dataclass(slots=True)
class _CanaryCounts:
    issued: int = 0
    detected: int = 0
    missed: int = 0


class LivenessMonitor:
    """Holds issued canaries to their detection deadline.

    Drivers call :meth:`issue` when a canary enters the validation plane
    and :meth:`poll` periodically (and once at shutdown, via
    :meth:`finalize`).  ``poll`` scans the detection report for canary
    mismatches, settles detected probes, and converts overdue ones into
    ``canary.missed`` events fed straight back into the report, which the
    CLI turns into exit status 3 (``ExitCode.CANARY_MISSED``).
    """

    def __init__(self, config: CanaryConfig, report, obs=None):
        self.config = config
        self._report = report
        self._obs = obs if obs is not None else NULL_OBS
        self._outstanding: dict[int, _Outstanding] = {}
        self._events_seen = 0
        self._counts = _CanaryCounts()
        self.detection_latencies: list[float] = []
        #: virtual time of the first missed canary; None while all healthy
        self.first_missed_at: float | None = None

    # ------------------------------------------------------------------
    @property
    def outstanding(self) -> int:
        return len(self._outstanding)

    @property
    def issued(self) -> int:
        return self._counts.issued

    @property
    def detected(self) -> int:
        return self._counts.detected

    @property
    def missed(self) -> int:
        return self._counts.missed

    def issue(self, log: ClosureLog, now: float) -> None:
        """A canary entered the validation plane; start its clock."""
        self._outstanding[log.seq] = _Outstanding(
            seq=log.seq,
            issued_at=now,
            deadline_at=now + self.config.deadline,
        )
        self._counts.issued += 1
        if self._obs.enabled:
            self._obs.registry.counter(
                "orthrus_canary_issued_total",
                help="canary probes injected into the validation plane",
            ).inc()
            self._obs.tracer.emit(
                "canary.issue", ts=now, seq=log.seq, deadline=self.config.deadline
            )

    def poll(self, now: float) -> list[int]:
        """Settle detections, then alarm on overdue canaries.

        Returns the seqs newly declared missed at this poll.
        """
        events = self._report.events
        for event in events[self._events_seen:]:
            if (
                event.kind == "mismatch"
                and is_canary_closure(event.closure)
                and event.seq in self._outstanding
            ):
                issued = self._outstanding.pop(event.seq)
                self._counts.detected += 1
                self.detection_latencies.append(event.time - issued.issued_at)
                if self._obs.enabled:
                    self._obs.registry.counter(
                        "orthrus_canary_detected_total",
                        help="canary probes detected by the validation plane",
                    ).inc()
        self._events_seen = len(events)

        newly_missed = [
            seq
            for seq, entry in self._outstanding.items()
            if now >= entry.deadline_at
        ]
        for seq in newly_missed:
            entry = self._outstanding.pop(seq)
            self._counts.missed += 1
            if self.first_missed_at is None:
                self.first_missed_at = now
            # Recorded directly (not via the runtime detection hook): a
            # missed canary is a liveness incident, not an SDC — it must
            # not trip abort policies or arbitration.
            self._report.record(
                DetectionEvent(
                    kind="canary.missed",
                    closure=CANARY_CLOSURE,
                    seq=seq,
                    time=now,
                    detail=(
                        f"canary issued at {entry.issued_at:.6g}s undetected "
                        f"after {self.config.deadline:.3g}s deadline"
                    ),
                )
            )
            self._events_seen = len(self._report.events)
            if self._obs.enabled:
                self._obs.registry.counter(
                    "orthrus_canary_missed_total",
                    help="canary probes not detected within their deadline",
                ).inc()
                self._obs.tracer.emit(
                    "canary.missed",
                    ts=now,
                    seq=seq,
                    issued_at=entry.issued_at,
                    deadline=self.config.deadline,
                )
        return newly_missed

    def finalize(self, now: float) -> None:
        """End-of-run sweep: canaries still outstanding past their deadline
        are missed; ones inside their window are forgiven (the run ended,
        not the detector)."""
        self.poll(now)
        self._outstanding.clear()

    def summary(self) -> dict:
        """JSON-able liveness rollup for run results and reports."""
        latencies = sorted(self.detection_latencies)
        return {
            "issued": self._counts.issued,
            "detected": self._counts.detected,
            "missed": self._counts.missed,
            "outstanding": len(self._outstanding),
            "first_missed_at": self.first_missed_at,
            "worst_detection_latency": latencies[-1] if latencies else 0.0,
            "deadline": self.config.deadline,
            "period": self.config.period,
        }


class _CanaryAttachment:
    """Canaries in a DES session: an issuer and a deadline poller."""

    def __init__(self, session, config: CanaryConfig):
        self.session, self.config = session, config
        self.monitor: LivenessMonitor | None = None

    def start(self, submit) -> None:
        """Probes ride the same store / queues (and watchdog) as organic
        traffic: liveness of the whole validation plane, not of one
        component, is what the canary measures.  The issuer stops with the
        apps; the poller once the plane has quiesced and nothing is due."""
        session, config = self.session, self.config
        env, runtime, obs = session.env, session.runtime, session.obs
        sched = CanaryScheduler(config, seed=session.config.seed)
        monitor = self.monitor = LivenessMonitor(config, runtime.report, obs=obs)

        def canary_issuer():
            while True:
                yield env.timeout(config.period)
                if session.apps_done:
                    return
                runtime._seq += 1
                log = sched.next_log(runtime._seq, env.now)
                monitor.issue(log, env.now)
                session.done_events[log.seq] = env.event()
                yield from submit(log)
                obs.lifecycle.handed_off(log, env.now)

        def canary_poller():
            step = config.deadline / 4
            while True:
                yield env.timeout(step)
                monitor.poll(env.now)
                if session.quiesced and monitor.outstanding == 0:
                    return

        env.process(canary_issuer())
        env.process(canary_poller())

    def finish(self, result) -> None:
        # Settle overdue canaries before the final telemetry flush so the
        # last timeline sample sees every miss.
        self.monitor.finalize(self.session.env.now)
        result.canary = self.monitor.summary()


def attach(session) -> _CanaryAttachment | None:
    """Extension-table row (``repro.harness.pipeline.EXTENSIONS``):
    canaries when the run's config names a ``CanaryConfig``."""
    config = session.config.canary
    return None if config is None else _CanaryAttachment(session, config)
