"""Detection events and reports.

Both detection mechanisms — checksum verification at the control/data-path
boundary (§3.4) and re-execution mismatch in the validator (§3.3) — emit
:class:`DetectionEvent` records.  The runtime aggregates them into a
:class:`DetectionReport`; in strict safe mode it aborts instead (§3.5).

Each event carries the identities of the cores involved (the APP core that
produced the suspect result and, for re-execution mismatches, the
validation core that disagreed) so a fault-injection campaign can score
its verdicts against ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: closures injected by the liveness canary layer (:mod:`repro.obs.canary`)
#: are namespaced so detection accounting can keep canary hits out of the
#: organic coverage numbers.
CANARY_PREFIX = "canary."


def is_canary_closure(name: str) -> bool:
    """True for closures injected by the canary scheduler (never organic
    application work)."""
    return name.startswith(CANARY_PREFIX)


@dataclass(frozen=True, slots=True)
class DetectionEvent:
    """One detected silent data corruption."""

    #: ``"checksum"`` (control-path payload corruption), ``"mismatch"``
    #: (data-path re-execution divergence), or ``"rbv"`` (baseline).
    kind: str
    closure: str
    seq: int
    time: float
    detail: str = ""
    #: id of the application core that executed the suspect closure (or the
    #: control-path hop, for checksum events); -1 when unknown.
    app_core: int = -1
    #: id of the validation core whose re-execution diverged; -1 for
    #: checksum events (no re-execution is involved).
    val_core: int = -1

    @property
    def cores(self) -> tuple[int, ...]:
        """The core ids implicated by this event, unknowns filtered out."""
        return tuple(c for c in (self.app_core, self.val_core) if c >= 0)


@dataclass
class DetectionReport:
    """Aggregated detections for one run."""

    events: list[DetectionEvent] = field(default_factory=list)

    def record(self, event: DetectionEvent) -> None:
        self.events.append(event)

    @property
    def detected(self) -> bool:
        return bool(self.events)

    @property
    def first(self) -> DetectionEvent | None:
        return self.events[0] if self.events else None

    def count(self, kind: str | None = None) -> int:
        if kind is None:
            return len(self.events)
        return sum(1 for event in self.events if event.kind == kind)

    def organic_events(self) -> list[DetectionEvent]:
        """Detections of real application work — canary probe hits and
        ``canary.missed`` liveness alarms excluded."""
        return [e for e in self.events if not is_canary_closure(e.closure)]

    def count_organic(self) -> int:
        return len(self.organic_events())

    def by_kind(self) -> dict[str, int]:
        """Event counts keyed by detection mechanism."""
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def by_closure(self) -> dict[str, int]:
        """Event counts keyed by the closure (or control hop) that fired."""
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.closure] = counts.get(event.closure, 0) + 1
        return counts

    def by_app_core(self) -> dict[int, int]:
        """Event counts keyed by the implicated application core."""
        counts: dict[int, int] = {}
        for event in self.events:
            counts[event.app_core] = counts.get(event.app_core, 0) + 1
        return counts

    def summary(self) -> dict:
        """JSON-able rollup of the run's detections.

        Keys: ``detected``, ``total``, ``by_kind``, ``by_closure``,
        ``by_app_core`` (core ids stringified for JSON), ``first_time``;
        plus ``organic`` whenever canary events are among them.
        """
        first = self.first
        summary = {
            "detected": self.detected,
            "total": len(self.events),
            "by_kind": self.by_kind(),
            "by_closure": self.by_closure(),
            "by_app_core": {str(core): n for core, n in self.by_app_core().items()},
            "first_time": first.time if first is not None else None,
        }
        organic = self.count_organic()
        if organic != len(self.events):
            summary["organic"] = organic
        return summary

    def clear(self) -> None:
        self.events.clear()
