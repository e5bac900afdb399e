"""Structured runtime tracing (the "T" of the obs layer).

The tracer is an append-only, in-memory buffer of flat, typed events
covering the closure lifecycle.  Which transition emits which kind, with
which fields, on which plane, is :mod:`repro.obs.lifecycle`'s to say —
DESIGN §7.1 has the table.

Timestamps are the runtime's clock (virtual seconds under the simulation
drivers, logical ticks under the default clock).  Every event is
additionally tagged with ``event_seq`` — the tracer's monotonically
increasing emission counter — because concurrent queues can tie on the
clock; sorting a merged JSON-lines trace by ``event_seq`` restores the
total emission order.

:class:`NullTracer` is the disabled implementation: a shared singleton
whose ``emit`` is a no-op.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = ["TraceEvent", "Tracer", "NullTracer", "NULL_TRACER"]


@dataclass(slots=True)
class TraceEvent:
    """One structured event: a kind, a timestamp, and flat fields.

    ``event_seq`` is the tracer's emission counter — distinct from the
    ``seq`` *field* many events carry, which identifies the closure
    execution.  Timestamps alone cannot totally order a JSON-lines trace
    (concurrent queues tie on the sim clock); ``event_seq`` can, even
    after traces from several runs or shards are merged post-hoc.
    """

    kind: str
    ts: float
    fields: dict[str, Any] = field(default_factory=dict)
    event_seq: int = 0

    def as_dict(self) -> dict[str, Any]:
        return {
            "event_seq": self.event_seq,
            "ts": self.ts,
            "kind": self.kind,
            **self.fields,
        }


class Tracer:
    """Recording tracer with a hard event cap (drops, never grows unbounded)."""

    enabled = True

    def __init__(self, max_events: int = 1_000_000):
        if max_events < 1:
            raise ValueError("max_events must be >= 1")
        self.events: list[TraceEvent] = []
        self.dropped = 0
        self._max_events = max_events
        self._seq = 0

    def emit(self, kind: str, ts: float, **fields: Any) -> None:
        # The counter advances even for dropped events so a gap in
        # event_seq across the trailing drop marker is visible evidence
        # of how much was lost.
        self._seq += 1
        if len(self.events) >= self._max_events:
            self.dropped += 1
            return
        self.events.append(TraceEvent(kind, ts, fields, event_seq=self._seq))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def of_kind(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def for_seq(self, seq: int) -> list[TraceEvent]:
        """Every event of one closure execution, in emission order."""
        return [e for e in self.events if e.fields.get("seq") == seq]

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0
        self._seq = 0


class NullTracer:
    """The zero-overhead disabled tracer (shared singleton)."""

    enabled = False
    events: tuple = ()
    dropped = 0

    def emit(self, kind: str, ts: float, **fields: Any) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(())

    def of_kind(self, kind: str) -> list[TraceEvent]:
        return []

    def for_seq(self, seq: int) -> list[TraceEvent]:
        return []

    def clear(self) -> None:
        pass


NULL_TRACER = NullTracer()
