"""Causal lifecycle spans: where the microseconds between corruption and
verdict actually go.

The flat tracer (:mod:`repro.obs.trace`) answers "what happened"; spans
answer "what happened *to this log*, in order, and how long each hop
took".  Every span is keyed by the closure log's ``seq`` and linked to the
previous span of the same log, so a finished run decomposes into causal
chains::

    closure.run → queue.wait → dispatch → validate → verdict

with the fault-tolerance detours (``stalled``, ``redispatch``,
``fallback``, ``skip``, ``drop``) spliced in where the chaos layer takes
over.  Stage intervals are recorded in virtual time and *tile*: for a log
whose chain ends in a ``verdict`` marker, the stage durations sum to
exactly ``verdict_time - start_time`` — the invariant the latency
attribution engine (:mod:`repro.obs.latency`) checks and exploits.

Lifecycle spans are recorded by :mod:`repro.obs.lifecycle` (DESIGN §7.1
names the method behind each stage); :data:`NULL_SPANS` records
nothing.  :func:`write_spans_chrome`
exports the chain as a Chrome trace-event file (one timeline row per
stage) that loads directly into Perfetto / ``chrome://tracing``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = [
    "STAGE_ORDER",
    "Span",
    "SpanTracer",
    "NullSpanTracer",
    "NULL_SPANS",
    "write_spans_chrome",
    "load_spans_chrome",
]

#: canonical stage ordering — the causal lifecycle first, then the
#: fault-tolerance detours.  Used for waterfall rendering order and Chrome
#: trace row assignment.
STAGE_ORDER = (
    "closure.run",
    "queue.wait",
    "dispatch",
    "validate",
    "verdict",
    "stalled",
    "redispatch",
    "fallback",
    "skip",
    "drop",
)


@dataclass(slots=True)
class Span:
    """One stage interval in a closure log's lifecycle.

    ``parent_id`` is the ``span_id`` of the previous span recorded for the
    same ``seq`` (-1 for chain roots), which is what makes the chain
    *causal* rather than merely co-keyed: each span points at the stage
    that handed the log to it.
    """

    span_id: int
    stage: str
    seq: int
    start: float
    end: float
    closure: str = ""
    parent_id: int = -1
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict[str, Any]:
        return {
            "span_id": self.span_id,
            "stage": self.stage,
            "seq": self.seq,
            "start": self.start,
            "end": self.end,
            "closure": self.closure,
            "parent_id": self.parent_id,
            **self.args,
        }


class SpanTracer:
    """Recording span tracer: seq-keyed causal chains with a hard cap.

    When constructed with a registry, every recorded span also feeds the
    ``orthrus_span_stage_seconds{stage=...}`` histogram, so per-stage
    latency distributions survive in metrics snapshots even when the span
    buffer itself is not exported.
    """

    enabled = True

    def __init__(self, max_spans: int = 1_000_000, registry=None):
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        self.spans: list[Span] = []
        self.dropped = 0
        self._max_spans = max_spans
        self._registry = registry
        self._next_id = 0
        #: seq → span_id of the most recent span (the causal parent link)
        self._last_for_seq: dict[int, int] = {}

    def record(
        self,
        stage: str,
        seq: int,
        start: float,
        end: float,
        closure: str = "",
        **args: Any,
    ) -> Span | None:
        """Append one stage interval to ``seq``'s chain.

        The parent link is implicit: the previously recorded span of the
        same seq.  Markers are spans with ``start == end``.  Returns None
        (and counts a drop) once the cap is hit — the chain-link state
        still advances so a post-cap chain stays causally consistent.
        """
        self._next_id += 1
        span_id = self._next_id
        parent_id = self._last_for_seq.get(seq, -1)
        self._last_for_seq[seq] = span_id
        if self._registry is not None:
            self._registry.histogram(
                "orthrus_span_stage_seconds",
                {"stage": stage},
                help="virtual time spent in each closure-lifecycle stage",
            ).record(end - start)
        if len(self.spans) >= self._max_spans:
            self.dropped += 1
            return None
        span = Span(
            span_id=span_id,
            stage=stage,
            seq=seq,
            start=start,
            end=end,
            closure=closure,
            parent_id=parent_id,
            args=args,
        )
        self.spans.append(span)
        return span

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans)

    def for_seq(self, seq: int) -> list[Span]:
        """One log's full chain, in recording (= causal) order."""
        return [s for s in self.spans if s.seq == seq]

    def of_stage(self, stage: str) -> list[Span]:
        return [s for s in self.spans if s.stage == stage]

    def stages(self) -> list[str]:
        """Stages present, canonical ones first, extras in first-seen order."""
        seen = {s.stage for s in self.spans}
        ordered = [stage for stage in STAGE_ORDER if stage in seen]
        for span in self.spans:
            if span.stage not in ordered:
                ordered.append(span.stage)
        return ordered

    def clear(self) -> None:
        self.spans.clear()
        self.dropped = 0
        self._next_id = 0
        self._last_for_seq.clear()


class NullSpanTracer:
    """The zero-overhead disabled span tracer (shared singleton)."""

    enabled = False
    spans: tuple = ()
    dropped = 0

    def record(self, stage, seq, start, end, closure="", **args):
        return None

    def __len__(self) -> int:
        return 0

    def __iter__(self) -> Iterator[Span]:
        return iter(())

    def for_seq(self, seq: int) -> list[Span]:
        return []

    def of_stage(self, stage: str) -> list[Span]:
        return []

    def stages(self) -> list[str]:
        return []

    def clear(self) -> None:
        pass


NULL_SPANS = NullSpanTracer()


# ----------------------------------------------------------------------
# Chrome trace-event exporter (Perfetto / chrome://tracing loadable)
# ----------------------------------------------------------------------
_CHROME_US = 1e6  # chrome trace timestamps are microseconds


def _stage_tids(stages: list[str]) -> dict[str, int]:
    ordered = [s for s in STAGE_ORDER if s in stages]
    ordered += [s for s in stages if s not in ordered]
    return {stage: tid for tid, stage in enumerate(ordered)}


def write_spans_chrome(spans, path: str) -> int:
    """Write spans as a Chrome trace-event JSON file; returns span count.

    One timeline row (tid) per stage under a single ``orthrus`` process,
    so the loaded trace reads as a waterfall: every complete (``ph=X``)
    event carries ``seq``/``closure``/``span_id``/``parent`` args, which
    also makes the file round-trippable via :func:`load_spans_chrome`.
    Markers get a minimal visible duration of 1 ns so Perfetto renders
    them; the true zero duration survives in the args.
    """
    span_list = list(spans)
    tids = _stage_tids([s.stage for s in span_list])
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": "orthrus"},
        }
    ]
    for stage, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": stage},
            }
        )
    for span in span_list:
        events.append(
            {
                "name": span.stage,
                "cat": "orthrus",
                "ph": "X",
                "pid": 0,
                "tid": tids[span.stage],
                "ts": span.start * _CHROME_US,
                "dur": max(span.duration * _CHROME_US, 1e-3),
                "args": {
                    "seq": span.seq,
                    "closure": span.closure,
                    "span_id": span.span_id,
                    "parent": span.parent_id,
                    "duration_s": span.duration,
                    **span.args,
                },
            }
        )
    payload: dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    dropped = getattr(spans, "dropped", 0)
    if dropped:
        payload["otherData"] = {"spans_dropped": dropped}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")
    return len(span_list)


def load_spans_chrome(path: str) -> list[Span]:
    """Load a Chrome trace written by :func:`write_spans_chrome` back into
    :class:`Span` objects (metadata events are skipped)."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        raise ValueError("not a chrome trace-event file (no traceEvents)")
    spans: list[Span] = []
    for event in payload["traceEvents"]:
        if event.get("ph") != "X":
            continue
        args = dict(event.get("args", {}))
        seq = args.pop("seq", -1)
        closure = args.pop("closure", "")
        span_id = args.pop("span_id", len(spans) + 1)
        parent = args.pop("parent", -1)
        duration = args.pop("duration_s", event.get("dur", 0.0) / _CHROME_US)
        start = event.get("ts", 0.0) / _CHROME_US
        spans.append(
            Span(
                span_id=span_id,
                stage=event["name"],
                seq=seq,
                start=start,
                end=start + duration,
                closure=closure,
                parent_id=parent,
                args=args,
            )
        )
    return spans
