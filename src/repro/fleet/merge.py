"""Deterministic cross-shard merge: events, digests, metrics, timelines.

The whole point of the fleet runner's process fan-out is that it is an
*implementation detail*: the merged artifact must be byte-identical
whether one worker simulated every host group or sixteen raced each
other.  Three properties deliver that (DESIGN.md §12):

1. **Pure shards** — each shard's events/series/snapshot are a pure
   function of (plan, config); nothing a worker observes about wall
   clocks, PIDs, or sibling shards can leak in.
2. **Total event order** — shard events carry ``(virtual_time, host_id,
   shard_id, local_seq)``; sorting by that tuple is a total order (no two
   events share all four fields: ``local_seq`` is unique per shard), so
   the merged stream — and the global ``seq`` assigned *after* the merge
   — is independent of arrival order.
3. **Associative rollups** — metrics registries, latency histograms and
   time-series buckets all merge associatively; the runner folds them in
   ascending shard order regardless of which worker produced them.

The fleet digest is a sha256 over the canonically-serialized merged
stream plus the config digest, so two runs agree iff their configs *and*
every event of every shard agree.
"""

from __future__ import annotations

import hashlib
import json

from repro.determinism import stable_digest
from repro.obs.audit import AuditReport, Finding, merge_findings
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import TimeSeries

__all__ = [
    "merge_events",
    "fleet_digest",
    "merge_audit",
    "merge_registries",
    "FleetTimeline",
    "merge_timelines",
]


def merge_events(results) -> list[dict]:
    """Merge per-shard event streams into one totally-ordered fleet
    stream with a post-merge global ``seq``."""
    events = []
    for result in results:
        events.extend(result.events)
    events.sort(key=lambda e: (e[0], e[1], e[2], e[3]))
    return [
        {
            "seq": seq,
            "t": t,
            "host": host,
            "shard": shard,
            "kind": kind,
            **payload,
        }
        for seq, (t, host, shard, _local, kind, payload) in enumerate(events)
    ]


def fleet_digest(config, merged_events: list[dict]) -> str:
    """sha256 over (config digest, every merged event) — the replay
    identity of a fleet run.  JSON float serialization is the shortest
    round-trip form, so identical virtual times hash identically across
    processes and platforms."""
    hasher = hashlib.sha256()
    hasher.update(stable_digest(config).encode("ascii"))
    for event in merged_events:
        line = json.dumps(event, sort_keys=True, separators=(",", ":"))
        hasher.update(b"\n")
        hasher.update(line.encode("utf-8"))
    return hasher.hexdigest()


def merge_registries(results) -> MetricsRegistry:
    """Fold shard registry snapshots in ascending shard order."""
    merged = MetricsRegistry()
    for result in sorted(results, key=lambda r: r.shard_id):
        merged.merge_snapshot(result.snapshot)
    return merged


def merge_audit(results) -> dict:
    """Fold per-shard drift findings into one ``orthrus-audit/1`` payload.

    ``merge_findings`` dedupes by (rule, subject, message) and sorts by
    severity, so the payload is identical for any worker count or fold
    order — the same argument the registry merge makes.  Two drift rules
    are evaluated per shard (coverage floor, canary liveness), hence
    ``rules_run``.
    """
    shard_results = sorted(results, key=lambda r: r.shard_id)
    findings = merge_findings(*[
        [Finding.from_dict(entry) for entry in result.audit]
        for result in shard_results
    ])
    report = AuditReport(
        findings=findings,
        rules_run=2 * len(shard_results),
        targets=["fleet-drift"],
    )
    return report.to_json()


class FleetTimeline:
    """Fleet-wide timeline: per-shard series merged by name.

    Duck-compatible with :class:`~repro.obs.timeseries.TimeSeriesRecorder`
    where the artifact layer cares (``to_dict`` / ``summary`` /
    ``series``), so ``write_timeline_json`` and the ``timeline`` CLI
    subcommand work on fleet runs unchanged.
    """

    def __init__(self, cadence: float):
        self.cadence = cadence
        self.samples_taken = 0
        self._series: dict[str, TimeSeries] = {}

    def fold(self, series_dicts: dict[str, dict]) -> None:
        """Merge one shard's serialized series in (name-sorted order).

        Each series is decoded here and read by nothing else, so its
        buckets are absorbed as they are rather than copied by
        :meth:`TimeSeries.merge`."""
        for name in sorted(series_dicts):
            incoming = TimeSeries.from_dict(series_dicts[name])
            mine = self._series.get(name)
            if mine is None:
                self._series[name] = incoming
            else:
                mine._absorb(incoming, incoming.buckets)
            self.samples_taken += incoming.total_samples

    def series(self, name: str) -> TimeSeries | None:
        return self._series.get(name)

    def names(self) -> list[str]:
        return sorted(self._series)

    def to_dict(self) -> dict:
        return {
            "format": "orthrus-timeseries/1",
            "cadence": self.cadence,
            "samples_taken": self.samples_taken,
            "series": [self._series[name].to_dict() for name in self.names()],
        }

    def summary(self) -> dict[str, dict[str, float]]:
        return {
            name: self._series[name].summary()
            for name in self.names()
            if not self._series[name].empty
        }


def merge_timelines(results, cadence: float) -> FleetTimeline:
    """Merge every shard's series rings in ascending shard order."""
    timeline = FleetTimeline(cadence)
    for result in sorted(results, key=lambda r: r.shard_id):
        timeline.fold(result.series)
    return timeline
