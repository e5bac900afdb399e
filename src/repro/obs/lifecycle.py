"""The closure-log lifecycle recorder: every transition's telemetry, in one place.

A log's life is a chain of transitions across app threads, queues, the
sampler and validators (PAPER §1).  :class:`Lifecycle` alone knows their
telemetry vocabulary — metric families, labels, help text, trace kinds,
span stages — with one method per transition, which the library runtime
and both DES planes call alike, passing what they already hold.  A
transition seen at two instants has two methods: the validator's account
(:meth:`validated`, :meth:`skipped`, :meth:`dropped`) and the span chain's
marker (:meth:`verdict`, :meth:`sampled_out`, :meth:`abandoned`), as the
APP run (:meth:`ran`) and its ``closure.run`` span (:meth:`handed_off`).
DESIGN §7.1 tabulates what each emits and on which planes.  ``NULL_OBS``
holds :data:`NULL_LIFECYCLE`, whose methods do nothing.
"""

from __future__ import annotations

from typing import Any

__all__ = ["Lifecycle", "NullLifecycle", "NULL_LIFECYCLE"]


class Lifecycle:
    """One run's lifecycle telemetry over its registry, tracer and spans."""

    __slots__ = ("registry", "tracer", "spans")

    def __init__(self, registry, tracer, spans):
        self.registry, self.tracer, self.spans = registry, tracer, spans

    # -- application side ------------------------------------------------
    def ran(self, log, core_id: int) -> None:
        """The APP execution finished; the event is stamped at its start."""
        labels = {"closure": log.closure_name, "caller": log.caller}
        self.registry.counter(
            "orthrus_closures_total", labels, help="APP closure executions"
        ).inc()
        self.registry.counter(
            "orthrus_closure_cycles_total", labels, help="cycles the APP executions consumed"
        ).inc(log.app_cycles)
        self.tracer.emit(
            "closure.run", ts=log.start_time, closure=log.closure_name, caller=log.caller,
            seq=log.seq, core=core_id, end_time=log.end_time, cycles=log.app_cycles,
        )

    def handed_off(self, log, end: float, **args: Any) -> None:
        """The log leaves its producer at ``end``: the ``closure.run`` span."""
        self.spans.record("closure.run", log.seq, log.start_time, end,
                          closure=log.closure_name, **args)

    def checksum_verified(self, log, obj_id: int, version_id: int, ok: bool) -> None:
        """A first-load CRC probe at the control/data boundary (§3.4)."""
        self.registry.counter(
            "orthrus_checksum_verifications_total",
            {"closure": log.closure_name, "result": "ok" if ok else "mismatch"},
            help="first-load CRC probes at the control/data boundary",
        ).inc()
        self.tracer.emit("checksum.verify", ts=log.start_time, closure=log.closure_name,
                         seq=log.seq, obj=obj_id, version=version_id, ok=ok)

    def served(self, latency: float) -> None:
        """A DES application request completed ``latency`` after it began."""
        self.registry.counter(
            "orthrus_requests_total", help="completed application requests"
        ).inc()
        self.registry.histogram(
            "orthrus_request_latency_seconds",
            help="request begin to response (incl. safe-mode holds)",
        ).record(latency)

    # -- queues ----------------------------------------------------------
    def enqueued(self, log, queue_id, queue, now: float) -> None:
        """``queue`` (``queue_id``: an index, or ``"store"``) admitted the log."""
        self.registry.counter(
            "orthrus_queue_pushes_total", {"queue": str(queue_id)},
            help="closure logs enqueued per validation queue",
        ).inc()
        self.tracer.emit("queue.push", ts=now, queue=queue_id, seq=log.seq,
                         closure=log.closure_name, depth=len(queue))

    def fell_out(self, log, queue_id: int, reason: str, now: float) -> None:
        """A bounded queue refused or evicted the log (overflow, shutdown)."""
        self.registry.counter(
            "orthrus_queue_drops_total", {"queue": str(queue_id), "reason": reason},
            help="closure logs dropped by bounded validation queues",
        ).inc()
        self.tracer.emit("queue.drop", ts=now, queue=queue_id, seq=log.seq,
                         closure=log.closure_name, reason=reason)

    def dequeued(self, log, queue_id: int, queue, now: float) -> None:
        """The library runtime popped the log from its own queue."""
        self.registry.counter(
            "orthrus_queue_pops_total", {"queue": str(queue_id)},
            help="closure logs dequeued per validation queue",
        ).inc()
        self.tracer.emit("queue.pop", ts=now, queue=queue_id, seq=log.seq,
                         closure=log.closure_name, depth=len(queue))

    def stolen(self, thief: int, victim: int) -> None:
        """Queue ``thief``'s validator took a log from queue ``victim``."""
        self.registry.counter(
            "orthrus_queue_steals_total", {"thief": str(thief), "victim": str(victim)},
            help="logs stolen between validation queues",
        ).inc()

    # -- the sampler -----------------------------------------------------
    def waited(self, log, now: float) -> None:
        """The log's wait in the plane ends: the ``queue.wait`` span."""
        self.spans.record("queue.wait", log.seq, log.enqueue_time, now,
                          closure=log.closure_name)

    def decided(self, log, decision, delay: float, now: float, sampler) -> None:
        """The sampler chose to validate or skip the dequeued log under load
        signal ``delay``; its wait ends here."""
        self.registry.histogram(
            "orthrus_queue_delay_seconds",
            help="queueing delay at each validator dequeue (the sampler's load signal)",
        ).record(delay)
        self.registry.counter(
            "orthrus_sampler_decisions_total",
            {"decision": "validate" if decision.validate else "skip",
             "reason": decision.reason},
            help="sampler verdicts by outcome and reason",
        ).inc()
        self.tracer.emit(
            "sampler.decision", ts=now, closure=log.closure_name, caller=log.caller,
            seq=log.seq, validate=decision.validate, reason=decision.reason,
            rate=getattr(sampler, "rate", 1.0),
        )
        self.waited(log, now)

    # -- the validator's account -----------------------------------------
    def validated(self, log, core_id: int, passed: bool, latency: float,
                  cycles: float, now: float) -> None:
        """The validator re-executed the log on ``core_id`` and compared."""
        labels = {"closure": log.closure_name, "caller": log.caller}
        registry = self.registry
        registry.counter(
            "orthrus_validations_total", labels,
            help="closure logs re-executed by the validator",
        ).inc()
        registry.counter(
            "orthrus_validation_cycles_total", labels,
            help="cycles spent re-executing closures",
        ).inc(cycles)
        if not passed:
            registry.counter(
                "orthrus_validation_mismatches_total", labels,
                help="validations that diverged from the APP run",
            ).inc()
        registry.histogram(
            "orthrus_validation_latency_seconds", labels,
            help="closure completion to validation completion",
        ).record(latency)
        self.tracer.emit(
            "validator.validate", ts=now, closure=log.closure_name, caller=log.caller,
            seq=log.seq, core=core_id, passed=passed, latency=latency, cycles=cycles,
        )

    def skipped(self, log, now: float) -> None:
        """The validator closed the log's window unvalidated (a skip)."""
        self.registry.counter(
            "orthrus_validation_skips_total",
            {"closure": log.closure_name, "caller": log.caller},
            help="closure logs dropped unvalidated",
        ).inc()
        self.tracer.emit("validator.skip", ts=now, closure=log.closure_name,
                         caller=log.caller, seq=log.seq)

    def dropped(self, log, reason: str, now: float) -> None:
        """The validator closed the log's window unvalidated (shed load)."""
        self.registry.counter(
            "orthrus_validation_drops_total",
            {"closure": log.closure_name, "reason": reason},
            help="logs dropped unvalidated by the fault-tolerance layer",
        ).inc()
        self.tracer.emit("validator.drop", ts=now, closure=log.closure_name,
                         caller=log.caller, seq=log.seq, reason=reason)

    # -- the span chain's dispatch and terminal markers ------------------
    def dispatched(self, log, start: float, end: float, core_id: int) -> None:
        """The fixed dispatch cost on ``core_id`` (virtual time only)."""
        self.spans.record("dispatch", log.seq, start, end, closure=log.closure_name,
                          core=core_id)

    def verdict(self, log, passed: bool, start: float, now: float, **args: Any) -> None:
        """The ``validate`` interval ending at the verdict (``args``: the
        validating core, the degradation level), then the ``verdict`` marker."""
        self.spans.record("validate", log.seq, start, now, closure=log.closure_name,
                          **args)
        self.spans.record("verdict", log.seq, now, now, closure=log.closure_name,
                          passed=passed)

    def sampled_out(self, log, now: float, reason: str) -> None:
        """The sampler (or the coverage-only rung) skipped the log."""
        self.spans.record("skip", log.seq, now, now, closure=log.closure_name,
                          reason=reason)

    def abandoned(self, log, now: float, reason: str) -> None:
        """The plane dropped the log unvalidated: the ``drop`` marker; a log
        dequeued past the timely-detection window ends its wait first."""
        if reason == "deadline":
            self.registry.counter(
                "orthrus_deadline_drops_total",
                help="logs dropped past the timely-detection window",
            ).inc()
            self.waited(log, now)
        self.spans.record("drop", log.seq, now, now, closure=log.closure_name,
                          reason=reason)

    def fell_back(self, log, now: float) -> None:
        """The plane settled the log by the CRC checksum fallback."""
        self.registry.counter(
            "orthrus_checksum_fallbacks_total",
            help="logs settled by CRC fallback instead of re-execution",
        ).inc()
        self.spans.record("fallback", log.seq, now, now, closure=log.closure_name)

    # -- the watchdog ----------------------------------------------------
    def timed_out(self, dispatch, now: float) -> None:
        """A dispatched validation missed its deadline."""
        log, core_id = dispatch.log, dispatch.core_id
        self.registry.counter(
            "orthrus_watchdog_timeouts_total", {"core": str(core_id)},
            help="dispatched validations that missed their deadline",
        ).inc()
        self.tracer.emit("watchdog.timeout", ts=now, seq=log.seq, closure=log.closure_name,
                         core=core_id, attempt=dispatch.attempt)

    def offender(self, core_id: int, timeouts: int, now: float) -> None:
        """A validation core missed deadlines often enough to be reported."""
        self.tracer.emit("watchdog.offender", ts=now, core=core_id, timeouts=timeouts)

    def quarantined(self, core_id: int, score: float, faults: int, now: float) -> None:
        """An offending validation core was pulled from service."""
        self.registry.counter(
            "orthrus_quarantines_total", {"core": str(core_id)},
            help="cores pulled from service by the response layer",
        ).inc()
        self.tracer.emit("response.quarantine", ts=now, core=core_id, score=score,
                         faults=faults)

    def quarantine_refused(self, core_id: int, score: float, now: float) -> None:
        """An offending core is the last validation core: it stays in service."""
        self.tracer.emit("response.quarantine_refused", ts=now, core=core_id, score=score)

    def stalled(self, dispatch, now: float) -> None:
        """The dead time on the faulted core, from dispatch to expiry."""
        self.spans.record("stalled", dispatch.log.seq, dispatch.dispatched_at, now,
                          closure=dispatch.log.closure_name, core=dispatch.core_id,
                          attempt=dispatch.attempt)

    def redispatched(self, log, now: float, delay: float) -> None:
        """The backoff before an expired log's re-enqueue; its next
        ``queue.wait`` starts where this ends."""
        self.spans.record("redispatch", log.seq, now, now + delay,
                          closure=log.closure_name)

    def retried(self) -> None:
        """A validator dispatched a log again after a deadline timeout."""
        self.registry.counter(
            "orthrus_watchdog_redispatches_total",
            help="validations re-dispatched after a deadline timeout",
        ).inc()

    def duplicated(self) -> None:
        """A late verdict arrived after its log was re-dispatched."""
        self.registry.counter(
            "orthrus_watchdog_duplicates_total",
            help="late verdicts discarded after re-dispatch",
        ).inc()

    # -- after the verdict -----------------------------------------------
    def reclaimed(self, count: int, watermark: float, active, heap) -> None:
        """A batched reclamation pass freed ``count`` versions (§3.6);
        ``active`` holds the still-open windows."""
        self.registry.counter(
            "orthrus_reclaim_passes_total", help="batched reclamation passes"
        ).inc()
        self.registry.counter(
            "orthrus_versions_reclaimed_total", help="stale versions freed by reclamation"
        ).inc(count)
        self.tracer.emit("reclaim.batch", ts=heap.now(), reclaimed=count,
                         watermark=watermark, open_windows=len(active))

    def detected(self, event) -> None:
        """A ``DetectionEvent`` reached the runtime."""
        self.registry.counter(
            "orthrus_detections_total", {"kind": event.kind, "closure": event.closure},
            help="SDC detections by kind",
        ).inc()


class NullLifecycle:
    """The disabled recorder (a shared singleton): every method does nothing."""

    def ran(self, log, core_id): pass
    def handed_off(self, log, end, **args): pass
    def checksum_verified(self, log, obj_id, version_id, ok): pass
    def served(self, latency): pass
    def enqueued(self, log, queue_id, queue, now): pass
    def fell_out(self, log, queue_id, reason, now): pass
    def dequeued(self, log, queue_id, queue, now): pass
    def stolen(self, thief, victim): pass
    def waited(self, log, now): pass
    def decided(self, log, decision, delay, now, sampler): pass
    def validated(self, log, core_id, passed, latency, cycles, now): pass
    def skipped(self, log, now): pass
    def dropped(self, log, reason, now): pass
    def dispatched(self, log, start, end, core_id): pass
    def verdict(self, log, passed, start, now, **args): pass
    def sampled_out(self, log, now, reason): pass
    def abandoned(self, log, now, reason): pass
    def fell_back(self, log, now): pass
    def timed_out(self, dispatch, now): pass
    def offender(self, core_id, timeouts, now): pass
    def quarantined(self, core_id, score, faults, now): pass
    def quarantine_refused(self, core_id, score, now): pass
    def stalled(self, dispatch, now): pass
    def redispatched(self, log, now, delay): pass
    def retried(self): pass
    def duplicated(self): pass
    def reclaimed(self, count, watermark, active, heap): pass
    def detected(self, event): pass


NULL_LIFECYCLE = NullLifecycle()
