"""Detection-latency attribution: folding span chains into waterfalls.

The paper's fig. 8 reports detection latency as one end-to-end number per
configuration.  This module decomposes it: given the causal span chains
from :mod:`repro.obs.spans`, it answers *where the time went* — queue
wait vs dispatch vs re-execution vs watchdog re-dispatch —
as per-stage distributions (p50/p95/p99), grouped overall, per closure
kind, and per degradation level.

The load-bearing invariant is **reconciliation**: for every log whose
chain ends in a ``verdict`` marker, the recorded stage durations tile the
interval from closure start to verdict exactly, so the per-stage sums add
back up to the end-to-end figure (± float rounding).  An attribution that
does not reconcile means a driver recorded overlapping or gapped spans —
:meth:`LatencyAttribution.reconciliation` makes that a testable property
instead of a silent accounting bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.obs.spans import STAGE_ORDER, Span

__all__ = [
    "StageStats",
    "LatencyAttribution",
    "attribute",
    "stage_stats_from_registry",
    "render_waterfall",
    "format_rate",
    "format_seconds",
    "format_wall",
]

#: chain-terminal markers: stages after these never add latency
_TERMINAL = "verdict"
#: residual tolerance for float summation across a chain
_EPSILON = 1e-9


@dataclass(slots=True)
class StageStats:
    """Distribution summary of one stage's durations (virtual seconds)."""

    count: int
    total: float
    p50: float
    p95: float
    p99: float
    max: float

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.max,
        }


def _percentile(ordered: list[float], p: float) -> float:
    """Linear-interpolated percentile of an already-sorted sample."""
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    rank = p * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def _stats(durations: list[float]) -> StageStats:
    ordered = sorted(durations)
    return StageStats(
        count=len(ordered),
        total=sum(ordered),
        p50=_percentile(ordered, 0.50),
        p95=_percentile(ordered, 0.95),
        p99=_percentile(ordered, 0.99),
        max=ordered[-1] if ordered else 0.0,
    )


class LatencyAttribution:
    """Per-stage latency decomposition of a finished run's span chains."""

    def __init__(self, chains: dict[int, list[Span]]):
        self._chains = chains
        #: stage → durations, across every chain
        self._by_stage: dict[str, list[float]] = {}
        #: closure kind → stage → durations
        self._by_closure: dict[str, dict[str, list[float]]] = {}
        #: degradation level → stage → durations
        self._by_level: dict[str, dict[str, list[float]]] = {}
        #: end-to-end (start → verdict) per verdict-terminated chain
        self._end_to_end: list[float] = []
        #: per-chain residual |sum(stages) - end_to_end| for verdict chains
        self._residuals: list[float] = []

        for spans in chains.values():
            closure = next((s.closure for s in spans if s.closure), "")
            level = "normal"
            for span in spans:
                level = span.args.get("level", level)
            verdict = next((s for s in spans if s.stage == _TERMINAL), None)
            chain_sum = 0.0
            for span in spans:
                self._by_stage.setdefault(span.stage, []).append(span.duration)
                self._by_closure.setdefault(closure, {}).setdefault(
                    span.stage, []
                ).append(span.duration)
                self._by_level.setdefault(level, {}).setdefault(
                    span.stage, []
                ).append(span.duration)
                chain_sum += span.duration
            if verdict is not None:
                start = min(s.start for s in spans)
                end_to_end = verdict.end - start
                self._end_to_end.append(end_to_end)
                self._residuals.append(abs(chain_sum - end_to_end))

    # ------------------------------------------------------------------
    @property
    def chain_count(self) -> int:
        return len(self._chains)

    def stages(self) -> dict[str, StageStats]:
        """Per-stage stats, in canonical stage order."""
        return {
            stage: _stats(self._by_stage[stage])
            for stage in _ordered(self._by_stage)
        }

    def by_closure(self) -> dict[str, dict[str, StageStats]]:
        return {
            closure: {
                stage: _stats(buckets[stage]) for stage in _ordered(buckets)
            }
            for closure, buckets in sorted(self._by_closure.items())
        }

    def by_level(self) -> dict[str, dict[str, StageStats]]:
        return {
            level: {
                stage: _stats(buckets[stage]) for stage in _ordered(buckets)
            }
            for level, buckets in sorted(self._by_level.items())
        }

    def end_to_end(self) -> StageStats:
        """Closure start → verdict, over verdict-terminated chains."""
        return _stats(self._end_to_end)

    def reconciliation(self) -> dict:
        """Do the stage sums add back up to the end-to-end figures?"""
        max_residual = max(self._residuals, default=0.0)
        return {
            "chains": len(self._residuals),
            "max_residual": max_residual,
            "reconciled": max_residual <= _EPSILON,
        }

    def summary(self) -> dict:
        return {
            "chains": self.chain_count,
            "end_to_end": self.end_to_end().as_dict(),
            "stages": {k: v.as_dict() for k, v in self.stages().items()},
            "reconciliation": self.reconciliation(),
        }


def _ordered(buckets: dict[str, list[float]]) -> list[str]:
    ordered = [s for s in STAGE_ORDER if s in buckets]
    ordered += [s for s in buckets if s not in ordered]
    return ordered


def attribute(spans: Iterable[Span]) -> LatencyAttribution:
    """Fold finished spans (a live :class:`SpanTracer` or a list loaded
    from a Chrome trace) into a :class:`LatencyAttribution`."""
    chains: dict[int, list[Span]] = {}
    for span in spans:
        chains.setdefault(span.seq, []).append(span)
    return LatencyAttribution(chains)


def stage_stats_from_registry(source) -> dict[str, StageStats]:
    """Per-stage stats from the ``orthrus_span_stage_seconds`` histogram
    family of a live registry or reloaded snapshot — the waterfall a saved
    metrics file can still render after the span buffer is gone."""
    stats: dict[str, StageStats] = {}
    for labels, hist in source.series("orthrus_span_stage_seconds"):
        stats[labels.get("stage", "?")] = StageStats(
            count=hist.count,
            total=hist.sum,
            p50=hist.p50,
            p95=hist.p95,
            p99=hist.p99,
            max=hist.max,
        )
    return {stage: stats[stage] for stage in _ordered(stats)}  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# Text waterfall rendering
# ----------------------------------------------------------------------
def format_seconds(value: float) -> str:
    """Human-scaled seconds: 12.3µs / 4.56ms / 1.23s."""
    mag = abs(value)
    if mag >= 1.0:
        return f"{value:.3g}s"
    if mag >= 1e-3:
        return f"{value * 1e3:.3g}ms"
    if mag >= 1e-6:
        return f"{value * 1e6:.3g}µs"
    if mag == 0.0:
        return "0s"
    return f"{value * 1e9:.3g}ns"


def format_rate(value: float, unit: str = "op/s") -> str:
    """Human-scaled rate: ``843 op/s`` / ``97 kop/s`` / ``1.21 Mop/s``."""
    if value >= 1e9:
        return f"{value / 1e9:.2f} G{unit}"
    if value >= 1e6:
        return f"{value / 1e6:.2f} M{unit}"
    if value >= 1e3:
        return f"{value / 1e3:.0f} k{unit}"
    return f"{value:.0f} {unit}"


def format_wall(value: float) -> str:
    """Human-scaled wall seconds: ``1.95s`` / ``48.21ms`` / ``6.1us``."""
    if value >= 1.0:
        return f"{value:.2f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.2f}ms"
    return f"{value * 1e6:.1f}us"


def render_waterfall(
    stages: dict[str, StageStats], bar_width: int = 24
) -> str:
    """Fixed-width per-stage waterfall table with share-of-total bars."""
    if not stages:
        return "(no spans recorded)\n"
    total = sum(s.total for s in stages.values()) or 1.0
    rows = []
    for stage, stats in stages.items():
        share = stats.total / total
        bar = "█" * max(int(round(share * bar_width)), 1 if stats.total else 0)
        rows.append(
            (
                stage,
                str(stats.count),
                format_seconds(stats.total),
                format_seconds(stats.p50),
                format_seconds(stats.p95),
                format_seconds(stats.p99),
                f"{share * 100:5.1f}%",
                bar,
            )
        )
    headers = ("stage", "count", "total", "p50", "p95", "p99", "share", "")
    widths = [
        max(len(row[i]) for row in rows + [headers]) for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "-" * (sum(widths) + 2 * (len(headers) - 2)),
    ]
    for row in rows:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        )
    return "\n".join(lines) + "\n"
