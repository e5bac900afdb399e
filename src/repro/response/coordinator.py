"""The response coordinator: wires detection into remediation.

Attached to an :class:`~repro.runtime.orthrus.OrthrusRuntime` as its
``responder``, the coordinator observes every closure log and every
detection event the runtime produces and drives the response state
machine:

1. first detection → **pause reclamation** (blast-radius evidence must not
   be garbage-collected mid-incident);
2. validation mismatch → **arbitrate** on a third core, feed the verdict
   into per-core health scores;
3. health threshold crossed → **quarantine** the core out of both
   scheduling pools;
4. :meth:`finalize` → **blast-radius analysis + repair** on healthy cores,
   reclamation resumed, everything summarized in an
   :class:`~repro.response.report.IncidentReport`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.closures.log import ClosureLog
from repro.detection import DetectionEvent, is_canary_closure
from repro.errors import ConfigurationError
from repro.response.arbiter import Arbiter
from repro.response.quarantine import QuarantineConfig, QuarantineManager
from repro.response.repair import Repairer, RepairResult
from repro.response.report import IncidentReport
from repro.validation.validator import ValidationOutcome


@dataclass(slots=True)
class ResponseConfig:
    """Knobs for the detection→remediation pipeline."""

    quarantine: QuarantineConfig = field(default_factory=QuarantineConfig)
    #: run the third-core referee on every validation mismatch
    arbitrate: bool = True
    #: freeze version reclamation from first detection to finalize()
    pause_reclamation: bool = True
    #: run blast-radius analysis + repair in finalize()
    auto_repair: bool = True
    #: closure logs retained for blast-radius/repair (None: unbounded —
    #: fine for tests and demos; deployments bound this by the window)
    log_retention: int | None = None
    #: cap on repair taint-fixpoint rounds
    max_repair_rounds: int = 8
    #: clean logs retained as probation-probe material
    probe_retention: int = 32
    #: keep the evidence hold past finalize() so probation probes can still
    #: replay their retained logs (the deferred reclamation pass at resume
    #: would collect the probes' pinned versions); :meth:`run_probation`
    #: ends the hold.  Set this whenever probation will follow finalize.
    hold_evidence_for_probation: bool = False


class ResponseCoordinator:
    """Observes one runtime and remediates the incidents it detects."""

    def __init__(self, runtime, config: ResponseConfig | None = None):
        self.runtime = runtime
        self.config = config if config is not None else ResponseConfig()
        self.arbiter = Arbiter(runtime.heap, obs=runtime.obs)
        self.quarantine = QuarantineManager(
            machine=runtime.machine,
            scheduler=runtime.scheduler,
            heap=runtime.heap,
            config=self.config.quarantine,
            obs=runtime.obs,
        )
        self.repairer = Repairer(runtime.heap, obs=runtime.obs)
        self.report = IncidentReport()
        #: the finalize() repair result, for post-mortem inspection
        self.last_repair: RepairResult | None = None
        self.verdicts = []
        self.events: list[DetectionEvent] = []
        self._logs: "OrderedDict[int, ClosureLog]" = OrderedDict()
        self._clean_logs: "OrderedDict[int, ClosureLog]" = OrderedDict()
        self._paused_reclaim = False
        self._finalized = False
        runtime.responder = self

    # ------------------------------------------------------------------
    # runtime hooks
    # ------------------------------------------------------------------
    def on_log(self, log: ClosureLog) -> None:
        """Every completed closure log, before its validation."""
        self._logs[log.seq] = log
        retention = self.config.log_retention
        if retention is not None:
            while len(self._logs) > retention:
                self._logs.popitem(last=False)

    def on_outcome(self, outcome: ValidationOutcome) -> None:
        """Every validation outcome (clean ones decay health scores)."""
        if outcome.passed:
            self.quarantine.record_clean(outcome.log.core_id)
            self._clean_logs[outcome.log.seq] = outcome.log
            while len(self._clean_logs) > self.config.probe_retention:
                self._clean_logs.popitem(last=False)

    def on_detection(self, event: DetectionEvent) -> None:
        """Every detection event, before the runtime's abort policy runs."""
        if is_canary_closure(event.closure):
            # Canary mismatches are manufactured: the probe *proving* the
            # validation plane is alive.  No evidence hold, no arbitration,
            # no core gets blamed for doing its job.
            return
        self.events.append(event)
        now = self.runtime.heap.now()
        self.report.add(event.time, "detection", f"{event.kind} {event.detail}")
        if (
            self.config.pause_reclamation
            and not self._paused_reclaim
        ):
            self.runtime.reclaimer.pause()
            self._paused_reclaim = True
            self.report.add(now, "reclamation-paused", "evidence hold begins")
        obs = self.runtime.obs
        if obs.enabled:
            obs.spans.record(
                "arbitrate", event.seq, event.time, event.time,
                closure=event.closure, kind=event.kind,
            )
        if event.kind == "mismatch" and self.config.arbitrate:
            self._arbitrate(event, now)
        elif event.kind == "checksum" and event.app_core >= 0:
            # CRC breakage at the control/data boundary is direct evidence
            # against the core that computed/transported the payload.
            self._record_fault(event.app_core, event.time, event.seq)

    # ------------------------------------------------------------------
    def _arbitrate(self, event: DetectionEvent, now: float) -> None:
        log = self._logs.get(event.seq)
        referee = self._pick_referee(event)
        if log is None or referee is None:
            self.report.arbitrations["inconclusive"] = (
                self.report.arbitrations.get("inconclusive", 0) + 1
            )
            reason = "log evicted" if log is None else "no referee core"
            self.report.add(
                now, "arbitration", f"seq={event.seq} inconclusive ({reason})"
            )
            return
        verdict = self.arbiter.arbitrate(log, event, referee)
        self.verdicts.append(verdict)
        self.report.arbitrations[verdict.suspect] = (
            self.report.arbitrations.get(verdict.suspect, 0) + 1
        )
        self.report.add(
            now,
            "arbitration",
            f"seq={event.seq} referee=core{referee.core_id} "
            f"suspect={verdict.suspect}"
            + (f" (core {verdict.suspect_core})" if verdict.conclusive else ""),
        )
        if verdict.conclusive:
            self._record_fault(verdict.suspect_core, event.time, event.seq)

    def _record_fault(self, core_id: int, when: float, seq: int) -> None:
        newly = self.quarantine.record_fault(core_id, when, seq=seq)
        health = self.quarantine.health(core_id)
        if newly:
            obs = self.runtime.obs
            if obs.enabled:
                obs.spans.record(
                    "quarantine", seq, when, when, core=core_id,
                )
            self.report.add(
                when,
                "quarantine",
                f"core {core_id} quarantined "
                f"(score={health.score:.1f}, faults={health.faults})",
            )
        elif health.held_in_service:
            self.report.add(
                when,
                "quarantine-refused",
                f"core {core_id} implicated but kept in service "
                f"(last core of its role)",
            )

    def _pick_referee(self, event: DetectionEvent):
        """A serviceable core distinct from both implicated cores."""
        for core in self.runtime.machine.serviceable_cores:
            if core.core_id not in (event.app_core, event.val_core):
                return core
        return None

    # ------------------------------------------------------------------
    # probation
    # ------------------------------------------------------------------
    def _replayable(self, log: ClosureLog) -> bool:
        """Can ``log`` still be re-executed and compared against the heap?

        Once finalize() ends the evidence hold, reclamation may drop a
        retained log's pinned inputs or recorded outputs; replaying such a
        log raises rather than diverges, so it is useless as a probe.
        """
        heap = self.runtime.heap
        return all(
            heap.has_version(vid) for vid in log.inputs.values()
        ) and all(heap.has_version(vid) for vid in log.output_versions)

    def run_probation(self) -> list[int]:
        """Probe every quarantined core with retained clean logs.

        Returns the cores re-admitted.  Probes use logs produced (and
        validated clean) on *other* cores, whose evidence is still
        resolvable on the heap; a core with no eligible probe material
        simply stays quarantined.
        """
        readmitted = []
        for core_id in self.quarantine.quarantined:
            probes = [
                log
                for log in reversed(self._clean_logs.values())
                if log.core_id != core_id and self._replayable(log)
            ]
            for log in probes:
                self.quarantine.probe(core_id, log)
                state = self.quarantine.state(core_id)
                if state == "in-service":
                    readmitted.append(core_id)
                    self.report.add(
                        self.runtime.heap.now(),
                        "readmit",
                        f"core {core_id} re-admitted after probation",
                    )
                    break
        if self._finalized:
            self._end_evidence_hold()
        return readmitted

    # ------------------------------------------------------------------
    # finalize: blast radius + repair + report
    # ------------------------------------------------------------------
    def finalize(self) -> IncidentReport:
        """Close the incident: repair the heap, resume reclamation, report."""
        if self._finalized:
            raise ConfigurationError("incident already finalized")
        self._finalized = True
        report = self.report
        report.detections = len(self.events)
        by_kind: dict[str, int] = {}
        for event in self.events:
            by_kind[event.kind] = by_kind.get(event.kind, 0) + 1
        report.detections_by_kind = by_kind
        report.quarantined_cores = self.quarantine.quarantined

        suspect = self.quarantine.top_suspect()
        if suspect is not None:
            report.faulty_core = suspect.core_id
            report.first_fault_time = suspect.first_fault_time
            report.first_fault_seq = suspect.first_fault_seq
            if self.config.auto_repair:
                self._repair(suspect.core_id, suspect.first_fault_seq)

        if not self.config.hold_evidence_for_probation:
            self._end_evidence_hold()
        now = self.runtime.heap.now()
        report.add(
            now,
            "report",
            f"incident closed: faulty_core={report.faulty_core} "
            f"repaired={report.versions_repaired} "
            f"unrecoverable={report.versions_unrecoverable}",
        )
        obs = self.runtime.obs
        if obs.enabled:
            obs.tracer.emit(
                "response.report",
                ts=now,
                faulty_core=report.faulty_core,
                detections=report.detections,
                repaired=report.versions_repaired,
                unrecoverable=report.versions_unrecoverable,
                complete=report.repair_complete,
            )
        return report

    def _end_evidence_hold(self) -> None:
        if not self._paused_reclaim:
            return
        self.runtime.reclaimer.resume()
        self._paused_reclaim = False
        self.report.add(
            self.runtime.heap.now(),
            "reclamation-resumed",
            "evidence hold ends",
        )

    def _repair(self, suspect_core: int, first_fault_seq: int | None) -> RepairResult:
        report = self.report
        since_seq = first_fault_seq if first_fault_seq is not None else 0
        healthy = [
            core
            for core in self.runtime.machine.serviceable_cores
            if core.core_id != suspect_core
        ]
        result = self.repairer.repair(
            list(self._logs.values()),
            suspect_core=suspect_core,
            since_seq=since_seq,
            healthy_cores=healthy,
            max_rounds=self.config.max_repair_rounds,
        )
        self.last_repair = result
        if result.blast is not None:
            report.versions_scanned = result.blast.versions_scanned
            report.add(
                self.runtime.heap.now(),
                "blast-radius",
                f"{len(result.blast.affected)} affected closures, "
                f"{len(result.blast.tainted_versions)} tainted versions "
                f"since seq={since_seq}",
            )
        obs = self.runtime.obs
        if obs.enabled:
            now = self.runtime.heap.now()
            obs.spans.record(
                "repair",
                since_seq,
                now,
                now,
                repaired=len(result.versions_repaired),
                unrecoverable=len(result.versions_unrecoverable),
            )
        report.versions_corrupted = len(result.versions_corrupted)
        report.versions_repaired = len(result.versions_repaired)
        report.versions_unrecoverable = len(result.versions_unrecoverable)
        report.objects_restored = len(result.objects_restored) + len(
            result.objects_deleted
        )
        report.closures_reexecuted = result.reexecuted
        report.repair_rounds = result.rounds
        report.repair_complete = result.complete
        report.add(
            self.runtime.heap.now(),
            "repair",
            f"{result.reexecuted} replays over {result.rounds} round(s): "
            f"{len(result.versions_repaired)} repaired, "
            f"{len(result.versions_unrecoverable)} unrecoverable",
        )
        return result
