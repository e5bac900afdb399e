"""Time-series telemetry over the metrics registry (longitudinal obs).

The snapshot exporters answer "what did the whole run add up to?"; this
module answers "how did it *evolve*?" — the paper's timeliness story
(Fig 8's validation-latency distribution, §6's graceful degradation under
core scarcity) is a trajectory, not a point.

A :class:`TimeSeriesRecorder` samples a ``MetricsRegistry`` on a
configurable sim-clock cadence.  Each sampled value lands in a
:class:`TimeSeries` — a *fixed-capacity* ring of aggregation buckets.
When the ring fills, adjacent buckets merge pairwise and the per-bucket
span doubles, so memory stays bounded while the series always covers the
whole run (resolution degrades gracefully, oldest data is never lost).
Every bucket keeps count/sum/min/max/last exactly plus a thinned sample
reservoir for p50/p95 estimates.

Probes turn cumulative registry families into per-interval series values:

* :class:`GaugeProbe` — read a gauge (or a family total) as-is;
* :class:`CounterRateProbe` — Δcounter / Δt per interval;
* :class:`DeltaRatioProbe` — Δmatching / Δtotal per interval (e.g. the
  sampler skip *rate*, not the cumulative skip count);
* :class:`HistogramWindowProbe` — a percentile of only the observations
  recorded since the previous tick (bucket-count diff + interpolation),
  so the series recovers after a stall — the cumulative p95 forgets
  nothing and therefore never does.

The artifact format is ``orthrus-timeseries/1`` (see DESIGN.md §9); it
round-trips through :meth:`TimeSeriesRecorder.to_dict` /
:func:`load_timeline` and is what the CLI ``--timeline-out`` flag writes
and the ``timeline`` subcommand renders.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from typing import Any

__all__ = [
    "SeriesBucket",
    "TimeSeries",
    "TimeSeriesConfig",
    "TimeSeriesRecorder",
    "GaugeProbe",
    "CounterRateProbe",
    "DeltaRatioProbe",
    "HistogramWindowProbe",
    "install_default_probes",
    "install_span_probes",
    "install_canary_probes",
    "write_timeline_json",
    "load_timeline",
    "render_sparkline",
    "DEFAULT_SERIES",
]

#: the series install_default_probes() wires up, in display order
DEFAULT_SERIES = (
    "validation_lag_p95",
    "validation_lag_mean",
    "queue_depth",
    "sampler_skip_rate",
    "checksum_verify_rate",
    "quarantined_cores",
    "reclaim_backlog",
    "degradation_level",
)

_STATS = ("count", "mean", "min", "max", "p50", "p95", "last")


class SeriesBucket:
    """One aggregation bucket: exact count/sum/min/max/last plus a thinned
    reservoir of raw samples for percentile estimates."""

    __slots__ = ("t_start", "t_end", "count", "sum", "min", "max", "last", "samples")

    def __init__(self, t_start: float, t_end: float):
        self.t_start = t_start
        self.t_end = t_end
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.last = 0.0
        self.samples: list[float] = []

    def add(self, t: float, value: float, reservoir: int) -> None:
        self.t_end = max(self.t_end, t)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.last = value
        if len(self.samples) < reservoir:
            self.samples.append(value)

    def merge(self, other: "SeriesBucket", reservoir: int) -> None:
        """Fold a *later* bucket into this one (compaction)."""
        self.t_end = other.t_end
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self.last = other.last
        pooled = self.samples + other.samples
        if len(pooled) > reservoir:
            # Thin evenly instead of truncating so both halves of the
            # merged span stay represented in the percentile reservoir.
            step = len(pooled) / reservoir
            pooled = [pooled[int(i * step)] for i in range(reservoir)]
        self.samples = pooled

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        rank = (len(ordered) - 1) * (p / 100.0)
        low = math.floor(rank)
        high = math.ceil(rank)
        if low == high:
            return float(ordered[low])
        frac = rank - low
        return float(ordered[low] * (1 - frac) + ordered[high] * frac)

    def stat(self, name: str) -> float:
        if name == "count":
            return float(self.count)
        if name == "mean":
            return self.mean
        if name == "min":
            return self.min if self.count else 0.0
        if name == "max":
            return self.max if self.count else 0.0
        if name == "p50":
            return self.percentile(50)
        if name == "p95":
            return self.percentile(95)
        if name == "last":
            return self.last
        raise ValueError(f"unknown bucket stat {name!r}")

    def as_dict(self) -> dict:
        return {
            "t_start": self.t_start,
            "t_end": self.t_end,
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "last": self.last,
            "samples": list(self.samples),
        }

    def copy(self) -> "SeriesBucket":
        """An independent bucket equal to ``from_dict(self.as_dict())``."""
        bucket = SeriesBucket(self.t_start, self.t_end)
        bucket.count = self.count
        bucket.sum = self.sum
        if self.count:
            bucket.min = self.min
            bucket.max = self.max
        bucket.last = self.last
        bucket.samples = list(self.samples)
        return bucket

    @classmethod
    def from_dict(cls, data: dict) -> "SeriesBucket":
        bucket = cls.__new__(cls)
        bucket.t_start = data["t_start"]
        bucket.t_end = data["t_end"]
        bucket.count = data["count"]
        bucket.sum = data["sum"]
        if bucket.count:
            bucket.min = data["min"]
            bucket.max = data["max"]
        else:
            bucket.min = math.inf
            bucket.max = -math.inf
        bucket.last = data["last"]
        bucket.samples = list(data["samples"])
        return bucket

    @classmethod
    def of_sample(cls, t: float, value: float) -> "SeriesBucket":
        """The bucket ``SeriesBucket(t, t).add(t, value, reservoir)``
        leaves, for any ``reservoir >= 1`` — NaN included: ``nan < inf``
        is false, so ``min`` stays ``inf`` (and ``max`` stays ``-inf``)."""
        bucket = cls.__new__(cls)
        bucket.t_start = bucket.t_end = t
        bucket.count = 1
        bucket.sum = 0.0 + value
        bucket.min = value if value < math.inf else math.inf
        bucket.max = value if value > -math.inf else -math.inf
        bucket.last = value
        bucket.samples = [value]
        return bucket


#: the order merged buckets interleave in: by span, ties stable
_BUCKET_ORDER = operator.attrgetter("t_start", "t_end")


class TimeSeries:
    """Fixed-capacity, self-compacting series of aggregation buckets.

    ``capacity`` bounds the number of buckets; ``per_bucket`` starts at 1
    raw sample per bucket and doubles on every compaction, so ``append``
    is amortized O(1) and memory never grows past
    ``capacity * (reservoir + O(1))`` floats regardless of run length.
    """

    def __init__(self, name: str, capacity: int = 512, reservoir: int = 16,
                 unit: str = ""):
        if capacity < 2:
            raise ValueError("capacity must be >= 2")
        if reservoir < 1:
            raise ValueError("reservoir must be >= 1")
        self.name = name
        self.unit = unit
        self.capacity = capacity
        self.reservoir = reservoir
        self.buckets: list[SeriesBucket] = []
        self._per_bucket = 1
        self.total_samples = 0
        self.compactions = 0

    def append(self, t: float, value: float) -> None:
        self.total_samples += 1
        buckets = self.buckets
        if buckets and buckets[-1].count < self._per_bucket:
            buckets[-1].add(t, value, self.reservoir)
        elif len(buckets) >= self.capacity:
            self._compact()
            # after compaction the tail is half-full; keep filling it
            self.buckets[-1].add(t, value, self.reservoir)
        else:
            buckets.append(SeriesBucket.of_sample(t, value))

    def merge(self, other: "TimeSeries") -> None:
        """Fold another series into this one (cross-shard fleet rollup).

        Buckets from both series interleave by start time (ties keep
        self-before-other order, so merging shards in a fixed order is
        deterministic); the result then re-compacts down to ``capacity``.
        Count/sum/min/max are preserved exactly — only percentile
        reservoirs thin — so ``summary()`` on the merged series equals
        ``summary()`` on a single series fed both sample streams for the
        exact stats.  ``other`` is left untouched: its buckets are copied
        (the fleet fold, which owns the series it decoded, absorbs them
        through :meth:`_absorb` instead).
        """
        self._absorb(other, [b.copy() for b in other.buckets])

    def _absorb(self, other: "TimeSeries", buckets: list[SeriesBucket]) -> None:
        """:meth:`merge` taking ``buckets`` (``other``'s, or copies of them)
        as they are: the caller owning ``other`` lends its buckets."""
        if not buckets:
            return
        merged = self.buckets + buckets
        merged.sort(key=_BUCKET_ORDER)
        self.buckets = merged
        self.total_samples += other.total_samples
        self._per_bucket = max(self._per_bucket, other._per_bucket)
        while len(self.buckets) > self.capacity:
            self._compact()

    def _compact(self) -> None:
        """Merge adjacent bucket pairs; doubles the per-bucket span.  Each
        pair folds exactly as ``SeriesBucket.merge`` would fold it."""
        buckets = self.buckets
        reservoir = self.reservoir
        merged = buckets[::2]
        for first, later in zip(merged, buckets[1::2]):
            first.t_end = later.t_end
            first.count += later.count
            first.sum += later.sum
            if later.min < first.min:
                first.min = later.min
            if later.max > first.max:
                first.max = later.max
            first.last = later.last
            pooled = first.samples + later.samples
            if len(pooled) == 2 * reservoir:
                # two full reservoirs: step 2.0, so the even thinning
                # below picks exactly every other sample
                pooled = pooled[::2]
            elif len(pooled) > reservoir:
                step = len(pooled) / reservoir
                pooled = [pooled[int(i * step)] for i in range(reservoir)]
            first.samples = pooled
        self.buckets = merged
        self._per_bucket *= 2
        self.compactions += 1

    # -- query surface --------------------------------------------------
    def __len__(self) -> int:
        return len(self.buckets)

    @property
    def empty(self) -> bool:
        return not self.buckets

    def values(self, stat: str = "mean") -> list[tuple[float, float]]:
        """(bucket end time, stat) pairs across the whole series."""
        return [(b.t_end, b.stat(stat)) for b in self.buckets]

    def latest(self, stat: str = "last") -> float:
        if not self.buckets:
            return 0.0
        return self.buckets[-1].stat(stat)

    def window(self, start: float, end: float) -> SeriesBucket:
        """Aggregate every bucket overlapping [start, end] into one: the
        returned bucket answers mean/p95/max queries over the window."""
        pooled = SeriesBucket(start, end)
        for bucket in self.buckets:
            if bucket.t_end < start or bucket.t_start > end:
                continue
            if pooled.count == 0:
                pooled.t_start = bucket.t_start
            pooled.merge(bucket, self.reservoir)
        return pooled

    def summary(self) -> dict[str, float]:
        """Whole-series percentiles/extremes (the bench artifact rows)."""
        whole = self.window(-math.inf, math.inf)
        return {stat: whole.stat(stat) for stat in _STATS}

    # -- artifact -------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "unit": self.unit,
            "capacity": self.capacity,
            "reservoir": self.reservoir,
            "per_bucket": self._per_bucket,
            "total_samples": self.total_samples,
            "compactions": self.compactions,
            "buckets": [b.as_dict() for b in self.buckets],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TimeSeries":
        series = cls(
            data["name"],
            capacity=data["capacity"],
            reservoir=data["reservoir"],
            unit=data.get("unit", ""),
        )
        series._per_bucket = data["per_bucket"]
        series.total_samples = data["total_samples"]
        series.compactions = data.get("compactions", 0)
        series.buckets = [SeriesBucket.from_dict(b) for b in data["buckets"]]
        return series


# ----------------------------------------------------------------------
# probes: cumulative registry families → per-interval scalars
# ----------------------------------------------------------------------
def _sum_matching(registry, name: str, match: dict[str, str] | None) -> float:
    """Sum one family's children whose labels are a superset of ``match``
    (the registry keys children by *full* label sets, so a partial label
    filter needs this helper)."""
    family = registry.get(name)
    if family is None:
        return 0.0
    total = 0.0
    for labels, child in registry.series(name):
        if match and any(labels.get(k) != v for k, v in match.items()):
            continue
        if family.kind == "gauge":
            total += child.read()
        elif family.kind == "histogram":
            total += child.count
        else:
            total += child.value
    return total


class GaugeProbe:
    """Read one or more gauge families (summed) as the sample value."""

    def __init__(self, *names: str, labels: dict[str, str] | None = None):
        self.names = names
        self.labels = labels

    def sample(self, registry, now: float, dt: float) -> float | None:
        return sum(_sum_matching(registry, name, self.labels) for name in self.names)


class CounterRateProbe:
    """Δcounter / Δt over the sampling interval (events per sim-second)."""

    def __init__(self, name: str, labels: dict[str, str] | None = None):
        self.name = name
        self.labels = labels
        self._prev: float | None = None

    def sample(self, registry, now: float, dt: float) -> float | None:
        current = _sum_matching(registry, self.name, self.labels)
        previous, self._prev = self._prev, current
        if previous is None or dt <= 0:
            return None
        return (current - previous) / dt


class DeltaRatioProbe:
    """Δmatching / Δtotal over the interval — e.g. the sampler *skip rate*
    (skips this tick over decisions this tick), in [0, 1]."""

    def __init__(self, name: str, match: dict[str, str]):
        self.name = name
        self.match = match
        self._prev_match: float | None = None
        self._prev_total = 0.0

    def sample(self, registry, now: float, dt: float) -> float | None:
        matching = _sum_matching(registry, self.name, self.match)
        total = _sum_matching(registry, self.name, None)
        prev_match, self._prev_match = self._prev_match, matching
        prev_total, self._prev_total = self._prev_total, total
        if prev_match is None:
            return None
        delta_total = total - prev_total
        if delta_total <= 0:
            return None  # no decisions this interval: nothing to rate
        return (matching - prev_match) / delta_total


class HistogramWindowProbe:
    """A percentile/mean of only the observations since the previous tick.

    Diffs the cumulative bucket counts (summed across the family's label
    sets, optionally restricted to children whose labels are a superset of
    ``match``) and interpolates inside the owning bucket — the streaming
    histogram's estimator applied to the interval's delta.
    """

    def __init__(
        self,
        name: str,
        stat: str = "p95",
        match: dict[str, str] | None = None,
    ):
        if stat not in ("mean", "p50", "p95", "p99", "max"):
            raise ValueError(f"unsupported histogram window stat {stat!r}")
        self.name = name
        self.stat = stat
        self.match = match
        self._prev_counts: list[int] | None = None
        self._prev_sum = 0.0

    def _family_counts(self, registry) -> tuple[list[int], float, list[float]] | None:
        family = registry.get(self.name)
        if family is None:
            return None
        counts: list[int] | None = None
        total_sum = 0.0
        bounds: list[float] = []
        for labels, child in registry.series(self.name):
            if self.match and any(
                labels.get(k) != v for k, v in self.match.items()
            ):
                continue
            bounds = child.bounds
            if counts is None:
                counts = [0] * len(child.counts)
            for i, n in enumerate(child.counts):
                counts[i] += n
            total_sum += child.sum
        if counts is None:
            return None
        return counts, total_sum, bounds

    def sample(self, registry, now: float, dt: float) -> float | None:
        snap = self._family_counts(registry)
        if snap is None:
            return None
        counts, total_sum, bounds = snap
        prev_counts = self._prev_counts
        prev_sum = self._prev_sum
        self._prev_counts = list(counts)
        self._prev_sum = total_sum
        if prev_counts is None or len(prev_counts) != len(counts):
            delta = counts
            delta_sum = total_sum
        else:
            delta = [c - p for c, p in zip(counts, prev_counts)]
            delta_sum = total_sum - prev_sum
        n = sum(delta)
        if n <= 0:
            return None  # nothing recorded this interval
        if self.stat == "mean":
            return delta_sum / n
        if self.stat == "max":
            for i in range(len(delta) - 1, -1, -1):
                if delta[i]:
                    return bounds[i] if i < len(bounds) else bounds[-1] * 2
            return 0.0
        p = {"p50": 50.0, "p95": 95.0, "p99": 99.0}[self.stat]
        rank = (p / 100.0) * n
        cumulative = 0
        for i, count in enumerate(delta):
            if count == 0:
                continue
            if cumulative + count >= rank:
                lo = bounds[i - 1] if i > 0 else 0.0
                hi = bounds[i] if i < len(bounds) else bounds[-1] * 2
                frac = (rank - cumulative) / count
                return lo + (hi - lo) * frac
            cumulative += count
        return bounds[-1] * 2


# ----------------------------------------------------------------------
# the recorder
# ----------------------------------------------------------------------
@dataclass
class TimeSeriesConfig:
    """Knobs for a recorder: how often to sample, how much to keep."""

    #: sim-clock seconds between samples (virtual time under the DES
    #: drivers).  Server runs last milliseconds of virtual time, so the
    #: default keeps a few hundred raw samples before compaction starts.
    cadence: float = 5e-6
    #: ring capacity per series (buckets)
    capacity: int = 512
    #: raw samples retained per bucket for percentile estimates
    reservoir: int = 16

    def __post_init__(self):
        if not 0 < self.cadence < math.inf:
            raise ValueError(f"cadence must be positive and finite, got {self.cadence}")


class TimeSeriesRecorder:
    """Samples a registry into named ring-buffer series on a cadence."""

    def __init__(self, registry, config: TimeSeriesConfig | None = None):
        self.registry = registry
        self.config = config if config is not None else TimeSeriesConfig()
        self._series: dict[str, TimeSeries] = {}
        self._probes: dict[str, Any] = {}
        self._last_sample: float | None = None
        self.samples_taken = 0

    def add_series(self, name: str, probe, unit: str = "") -> TimeSeries:
        if name in self._series:
            raise ValueError(f"series {name!r} already registered")
        series = TimeSeries(
            name,
            capacity=self.config.capacity,
            reservoir=self.config.reservoir,
            unit=unit,
        )
        self._series[name] = series
        self._probes[name] = probe
        return series

    def series(self, name: str) -> TimeSeries | None:
        return self._series.get(name)

    def names(self) -> list[str]:
        return list(self._series)

    @property
    def cadence(self) -> float:
        return self.config.cadence

    def sample(self, now: float, force: bool = False) -> bool:
        """Take one sample if the cadence has elapsed (or ``force``);
        returns whether a sample was actually taken."""
        last = self._last_sample
        if not force and last is not None and now - last < self.config.cadence:
            return False
        dt = self.config.cadence if last is None else max(now - last, 0.0)
        self._last_sample = now
        self.samples_taken += 1
        for name, probe in self._probes.items():
            value = probe.sample(self.registry, now, dt)
            if value is None:
                continue
            self._series[name].append(now, float(value))
        return True

    # -- artifact -------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "format": "orthrus-timeseries/1",
            "cadence": self.config.cadence,
            "samples_taken": self.samples_taken,
            "series": [s.to_dict() for s in self._series.values()],
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Whole-run percentiles per non-empty series (bench artifacts)."""
        return {
            name: series.summary()
            for name, series in self._series.items()
            if not series.empty
        }


def install_default_probes(recorder: TimeSeriesRecorder) -> None:
    """Wire up the standard pipeline series (DESIGN.md §9).

    Works against either queue shape: the DES drivers' shared log store
    (``orthrus_log_store_depth``) and the queued-mode per-core queues
    (``orthrus_queue_depth``) feed the same ``queue_depth`` series —
    whichever family exists contributes, the other reads 0.
    """
    recorder.add_series(
        "validation_lag_p95",
        HistogramWindowProbe("orthrus_validation_latency_seconds", "p95"),
        unit="s",
    )
    recorder.add_series(
        "validation_lag_mean",
        HistogramWindowProbe("orthrus_validation_latency_seconds", "mean"),
        unit="s",
    )
    recorder.add_series(
        "queue_depth",
        GaugeProbe("orthrus_log_store_depth", "orthrus_queue_depth"),
        unit="logs",
    )
    recorder.add_series(
        "sampler_skip_rate",
        DeltaRatioProbe("orthrus_sampler_decisions_total", {"decision": "skip"}),
        unit="fraction",
    )
    recorder.add_series(
        "checksum_verify_rate",
        CounterRateProbe("orthrus_checksum_verifications_total"),
        unit="1/s",
    )
    recorder.add_series(
        "quarantined_cores",
        GaugeProbe("orthrus_quarantined_cores"),
        unit="cores",
    )
    recorder.add_series(
        "reclaim_backlog",
        GaugeProbe("orthrus_heap_reclaimable_versions"),
        unit="versions",
    )
    recorder.add_series(
        "degradation_level",
        GaugeProbe("orthrus_degradation_level"),
        unit="level",
    )


def install_span_probes(recorder: TimeSeriesRecorder) -> None:
    """Per-stage latency series from the causal span layer (DESIGN.md §11).

    Reads the ``orthrus_span_stage_seconds`` histogram family the
    :class:`~repro.obs.spans.SpanTracer` feeds, filtered per stage — the
    timeline view of where detection latency goes over the run.
    """
    for stage in ("queue.wait", "dispatch", "validate"):
        recorder.add_series(
            f"span_{stage.replace('.', '_')}_p95",
            HistogramWindowProbe(
                "orthrus_span_stage_seconds", "p95", match={"stage": stage}
            ),
            unit="s",
        )


def install_canary_probes(recorder: TimeSeriesRecorder) -> None:
    """Canary liveness series: cumulative missed canaries (any non-zero
    point is a ``canary.missed`` alarm; the ``timeline`` subcommand exits
    3 on one) and the issue rate for context."""
    recorder.add_series(
        "canary_missed",
        GaugeProbe("orthrus_canary_missed_total"),
        unit="canaries",
    )
    recorder.add_series(
        "canary_issue_rate",
        CounterRateProbe("orthrus_canary_issued_total"),
        unit="1/s",
    )


def install_audit_probes(recorder: TimeSeriesRecorder) -> None:
    """Validation-plane audit series: cumulative drift-probe violations
    and the running count of logs with open exposure windows (DESIGN
    §14) — the timeline view of "how unprotected is the plane, now"."""
    recorder.add_series(
        "audit_violations",
        GaugeProbe("orthrus_audit_violations_total"),
        unit="violations",
    )
    recorder.add_series(
        "exposure_logs",
        GaugeProbe("orthrus_exposure_seconds"),
        unit="logs",
    )


# ----------------------------------------------------------------------
# artifact I/O + terminal rendering
# ----------------------------------------------------------------------
def write_timeline_json(recorder: TimeSeriesRecorder, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(recorder.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_timeline(path: str) -> dict[str, TimeSeries]:
    """Load an ``orthrus-timeseries/1`` artifact into named series.

    A truncated or mistyped artifact raises one ``ValueError`` naming the
    series entry and the key, translated here once per entry: the decoders
    themselves stay free of per-bucket checks (the fleet fold decodes
    every shard's buckets through them)."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("format") != "orthrus-timeseries/1":
        raise ValueError("not an orthrus-timeseries/1 artifact")
    if not isinstance(payload.get("series"), list):
        raise ValueError("artifact: key 'series' is missing or not a list")
    loaded: dict[str, TimeSeries] = {}
    for index, entry in enumerate(payload["series"]):
        label = f"series[{index}]"
        if isinstance(entry, dict) and isinstance(entry.get("name"), str):
            label += f" {entry['name']!r}"
        try:
            series = TimeSeries.from_dict(entry)
        except KeyError as exc:
            raise ValueError(f"{label}: missing key {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{label}: {exc}") from None
        loaded[series.name] = series
    return loaded


_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def render_sparkline(values: list[float], width: int = 60) -> str:
    """A fixed-width terminal sparkline (empty input renders as spaces)."""
    if not values:
        return " " * width
    if len(values) > width:
        # Downsample by taking the max of each chunk — spikes must stay
        # visible, they are what the timeline exists to show.
        step = len(values) / width
        values = [
            max(values[int(i * step):max(int((i + 1) * step), int(i * step) + 1)])
            for i in range(width)
        ]
    low = min(values)
    high = max(values)
    span = high - low
    if span <= 0:
        # Constant series: still honor the fixed width — glyphs for the
        # samples that exist, space-padded to the promised column count.
        return (_SPARK_BLOCKS[0] * len(values)).ljust(width)
    out = []
    for value in values:
        index = int((value - low) / span * (len(_SPARK_BLOCKS) - 1))
        out.append(_SPARK_BLOCKS[index])
    return "".join(out).ljust(width)
