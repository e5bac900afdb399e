"""Benchmark tracking: canonical perf artifacts + regression comparison.

Every PR used to re-derive the paper's numbers from scratch and throw
them away; nothing recorded whether Orthrus overhead crept from 4% to 9%
between commits.  This module runs scaled-down versions of the headline
benchmarks (Fig 6 performance, Fig 8 validation latency, Table 2
coverage) and writes one ``BENCH_<name>.json`` artifact per benchmark —
schema ``orthrus-bench/1``: the config and its digest, wall time, the sim
metrics, and whole-run time-series percentiles from the telemetry
recorder.  :func:`compare_artifacts` diffs two artifacts under
per-metric *directions* (lower-better, higher-better, or stable) with a
relative tolerance, so CI can fail a PR that regresses throughput or
detection latency while letting genuine improvements through.

The comparison gates only on ``sim`` metrics: virtual-time results are
deterministic for a fixed (scale, seed), so two runs of the same config
always compare clean — wall time is recorded for trend plots but never
gates (it measures the CI host, not Orthrus).

Surfaced as the ``repro-bench bench-compare`` CLI subcommand; the seed
baselines live in ``benchmarks/baselines/``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.faultinject.campaign import FaultInjectionCampaign
from repro.faultinject.config import InjectionConfig
from repro.fleet import FleetConfig, run_fleet
from repro.harness.pipeline import (
    PipelineConfig,
    run_orthrus_server,
    run_rbv_server,
    run_vanilla_server,
)
from repro.harness.scenarios import lsmtree_scenario, memcached_scenario
from repro.obs import Observability, TimeSeriesConfig
from repro.sim.metrics import slowdown

__all__ = [
    "BENCH_FORMAT",
    "BENCHES",
    "BenchComparison",
    "MetricDelta",
    "artifact_filename",
    "compare_artifacts",
    "load_artifact",
    "render_comparison",
    "run_bench",
    "write_artifact",
]

BENCH_FORMAT = "orthrus-bench/1"

#: regression semantics per metric: does the run get *worse* when the
#: value goes up, down, or whenever it moves at all?
LOWER_BETTER = "lower_better"
HIGHER_BETTER = "higher_better"
STABLE = "stable"


def _scaled(value: float, scale: float, minimum: int = 1) -> int:
    return max(minimum, int(value * scale))


def _base_config(seed: int, **overrides) -> PipelineConfig:
    return PipelineConfig(app_threads=2, validation_cores=2, seed=seed, **overrides)


def _orthrus_with_telemetry(seed: int) -> PipelineConfig:
    """The instrumented Orthrus arm: metrics + timeline, no trace buffer
    (benchmarks do not need per-event records, only the series)."""
    return _base_config(
        seed,
        obs=Observability(trace=False),
        timeseries=TimeSeriesConfig(),
    )


def _series_percentiles(result) -> dict[str, dict[str, float]]:
    if result.timeline is None:
        return {}
    return result.timeline.summary()


# ----------------------------------------------------------------------
# the benchmarks
# ----------------------------------------------------------------------
def _run_fig6(scale: float, seed: int):
    """Fig 6 (scaled): vanilla/Orthrus/RBV throughput + memory overheads."""
    sim: dict[str, float] = {}
    series: dict[str, dict[str, float]] = {}
    for label, factory in (("memcached", memcached_scenario), ("lsmtree", lsmtree_scenario)):
        scenario = factory()
        n_ops = _scaled(2500, scale)
        vanilla = run_vanilla_server(scenario, n_ops, _base_config(seed))
        orthrus = run_orthrus_server(scenario, n_ops, _orthrus_with_telemetry(seed))
        rbv = run_rbv_server(scenario, n_ops, _base_config(seed))
        sim[f"{label}_vanilla_kops"] = vanilla.metrics.throughput / 1e3
        sim[f"{label}_orthrus_overhead"] = slowdown(
            vanilla.metrics.throughput, orthrus.metrics.throughput
        )
        sim[f"{label}_rbv_overhead"] = slowdown(
            vanilla.metrics.throughput, rbv.metrics.throughput
        )
        sim[f"{label}_memory_overhead"] = orthrus.metrics.memory_overhead
        sim[f"{label}_sampling_fraction"] = orthrus.metrics.sampling_fraction
        for name, stats in _series_percentiles(orthrus).items():
            series[f"{label}.{name}"] = stats
    return sim, series


_FIG6_DIRECTIONS = {
    "memcached_vanilla_kops": HIGHER_BETTER,
    "memcached_orthrus_overhead": LOWER_BETTER,
    "memcached_rbv_overhead": STABLE,
    "memcached_memory_overhead": LOWER_BETTER,
    "memcached_sampling_fraction": HIGHER_BETTER,
    "lsmtree_vanilla_kops": HIGHER_BETTER,
    "lsmtree_orthrus_overhead": LOWER_BETTER,
    "lsmtree_rbv_overhead": STABLE,
    "lsmtree_memory_overhead": LOWER_BETTER,
    "lsmtree_sampling_fraction": HIGHER_BETTER,
}


def _run_fig8(scale: float, seed: int):
    """Fig 8 (scaled): validation latency, Orthrus vs RBV."""
    sim: dict[str, float] = {}
    series: dict[str, dict[str, float]] = {}
    for label, factory in (("memcached", memcached_scenario), ("lsmtree", lsmtree_scenario)):
        scenario = factory()
        n_ops = _scaled(3000, scale)
        orthrus = run_orthrus_server(scenario, n_ops, _orthrus_with_telemetry(seed))
        rbv = run_rbv_server(scenario, n_ops, _base_config(seed))
        o_lat = orthrus.metrics.validation_latency
        r_lat = rbv.metrics.validation_latency
        sim[f"{label}_orthrus_val_mean_us"] = o_lat.mean * 1e6
        sim[f"{label}_orthrus_val_p95_us"] = o_lat.p95 * 1e6
        sim[f"{label}_rbv_over_orthrus_ratio"] = r_lat.mean / max(o_lat.mean, 1e-12)
        for name, stats in _series_percentiles(orthrus).items():
            series[f"{label}.{name}"] = stats
    return sim, series


_FIG8_DIRECTIONS = {
    "memcached_orthrus_val_mean_us": LOWER_BETTER,
    "memcached_orthrus_val_p95_us": LOWER_BETTER,
    "memcached_rbv_over_orthrus_ratio": HIGHER_BETTER,
    "lsmtree_orthrus_val_mean_us": LOWER_BETTER,
    "lsmtree_orthrus_val_p95_us": LOWER_BETTER,
    "lsmtree_rbv_over_orthrus_ratio": HIGHER_BETTER,
}


def _run_table2(scale: float, seed: int):
    """Table 2 (scaled): fault-injection coverage on memcached."""
    campaign = FaultInjectionCampaign(
        memcached_scenario(),
        workload_size=_scaled(600, scale, minimum=50),
        injection=InjectionConfig(n_faults=_scaled(16, scale, minimum=6), seed=seed),
        make_pipeline=lambda: _base_config(seed, drain_grace_fraction=4.0),
        runner=run_orthrus_server,
        rbv_runner=None,
    )
    result = campaign.run()
    table = result.coverage_table()
    total_sdcs = sum(row.total_sdcs for row in table.values())
    detected = sum(row.orthrus_detected for row in table.values())
    sim = {
        "detection_rate": result.detection_rate,
        "total_sdc_trials": float(total_sdcs),
        "detected_sdc_trials": float(detected),
        "profiled_sites": float(len(result.profiled_sites)),
    }
    return sim, {}


_TABLE2_DIRECTIONS = {
    "detection_rate": HIGHER_BETTER,
    "total_sdc_trials": STABLE,
    "detected_sdc_trials": HIGHER_BETTER,
    "profiled_sites": STABLE,
}


def _run_fleet_scale(scale: float, seed: int):
    """Fleet rollup (scaled): coverage, lag, and incident census across a
    small sharded fleet.  Everything here is virtual-time deterministic
    for a fixed (scale, seed) — including the incident counts — so STABLE
    metrics gate exactly."""
    config = FleetConfig(
        hosts=4,
        shards=8,
        cores_per_host=32,
        keys=40_000,
        users=4_000,
        scale=scale,
        epochs=48,
        # demand beyond validator capacity, so the adaptive sampler (not
        # idle headroom) sets the coverage number this bench gates on
        load_factor=8.0,
        # a fleet this small needs a hot-running fault population for the
        # detection/quarantine path to register at all
        mercurial_rate=0.02,
        ground_shards=2,
        ground_ops=80,
        seed=seed,
    )
    report = run_fleet(config, workers=1)
    rollup = report.rollup
    sim = {
        "coverage_fraction": rollup["coverage"],
        "validation_lag_p95_us": rollup["validation_lag"].get("p95", 0.0) * 1e6,
        "escaped_sdc": float(rollup["escaped"]),
        "detections": float(
            rollup["incidents"]["by_kind"].get("detection", 0)
        ),
        "quarantined_cores": float(rollup["quarantine"]["cores"]),
        "safe_hold_shards": float(
            len(rollup["degradation"]["safe_hold_shards"])
        ),
        "remote_rbv_logs": float(rollup["rbv"]["remote_logs"]),
        "event_count": float(len(report.events)),
    }
    return sim, report.timeline.summary()


_FLEET_DIRECTIONS = {
    "coverage_fraction": HIGHER_BETTER,
    "validation_lag_p95_us": LOWER_BETTER,
    "escaped_sdc": LOWER_BETTER,
    "detections": STABLE,
    "quarantined_cores": STABLE,
    "safe_hold_shards": LOWER_BETTER,
    "remote_rbv_logs": STABLE,
    "event_count": STABLE,
}


@dataclass(frozen=True)
class BenchSpec:
    """One tracked benchmark: its runner and per-metric directions."""

    name: str
    run: Callable[[float, int], tuple[dict, dict]]
    directions: dict[str, str]
    description: str = ""


BENCHES: dict[str, BenchSpec] = {
    spec.name: spec
    for spec in (
        BenchSpec(
            "fig6_performance",
            _run_fig6,
            _FIG6_DIRECTIONS,
            "throughput + memory overheads (vanilla/Orthrus/RBV)",
        ),
        BenchSpec(
            "fig8_validation_latency",
            _run_fig8,
            _FIG8_DIRECTIONS,
            "validation latency (Orthrus vs RBV)",
        ),
        BenchSpec(
            "table2_coverage",
            _run_table2,
            _TABLE2_DIRECTIONS,
            "fault-injection detection coverage",
        ),
        BenchSpec(
            "fleet_scale",
            _run_fleet_scale,
            _FLEET_DIRECTIONS,
            "fleet-wide coverage, lag, and incident census",
        ),
    )
}


# ----------------------------------------------------------------------
# artifacts
# ----------------------------------------------------------------------
def _config_digest(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def run_bench(name: str, scale: float = 1.0, seed: int = 1) -> dict:
    """Run one tracked benchmark and build its ``orthrus-bench/1`` dict."""
    spec = BENCHES.get(name)
    if spec is None:
        raise ValueError(
            f"unknown benchmark {name!r}; tracked: {', '.join(sorted(BENCHES))}"
        )
    config = {
        "name": name,
        "scale": scale,
        "seed": seed,
        "app_threads": 2,
        "validation_cores": 2,
    }
    started = time.perf_counter()
    sim, series = spec.run(scale, seed)
    wall_time_s = time.perf_counter() - started
    return {
        "format": BENCH_FORMAT,
        "name": name,
        "config": config,
        "config_digest": _config_digest(config),
        "wall_time_s": wall_time_s,
        "sim": sim,
        "series_percentiles": series,
    }


def artifact_filename(name: str) -> str:
    return f"BENCH_{name}.json"


def write_artifact(artifact: dict, directory: str) -> str:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, artifact_filename(artifact["name"]))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(artifact, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_artifact(path: str) -> dict:
    """Load a ``BENCH_*.json`` and fail closed on a damaged one.

    The comparison gates on ``sim``; a baseline whose ``sim`` is absent,
    empty or holds a non-finite or non-numeric value would compare every
    metric as new, improved or not at all, so it is rejected here with a
    ``ValueError`` naming the file and the offending key.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            artifact = json.load(fh)
    except ValueError as exc:  # truncated / non-UTF-8 / not JSON
        raise ValueError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(artifact, dict) or artifact.get("format") != BENCH_FORMAT:
        raise ValueError(f"{path} is not an {BENCH_FORMAT} artifact")
    if not isinstance(artifact.get("name"), str):
        raise ValueError(f"{path}: 'name' must be a string")
    sim = artifact.get("sim")
    if not isinstance(sim, dict) or not sim:
        raise ValueError(f"{path}: 'sim' must be a non-empty object of metrics")
    for metric, value in sim.items():
        try:
            finite = not isinstance(value, bool) and math.isfinite(value)
        except (TypeError, OverflowError):  # not a real number / too big for one
            finite = False
        if not finite:
            raise ValueError(
                f"{path}: sim[{metric!r}] must be a finite number, got {value!r}"
            )
    return artifact


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------
@dataclass(slots=True)
class MetricDelta:
    """One metric's baseline→current movement and its verdict."""

    metric: str
    baseline: float | None
    current: float | None
    direction: str
    #: relative change (current vs baseline); None when not computable
    rel: float | None
    #: ``ok`` | ``regression`` | ``improvement`` | ``new`` | ``missing``
    status: str


@dataclass
class BenchComparison:
    """The comparison verdict for one benchmark artifact pair."""

    name: str
    tolerance: float
    deltas: list[MetricDelta] = field(default_factory=list)
    config_match: bool = True
    notes: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.status == "regression"]

    @property
    def ok(self) -> bool:
        return not self.regressions


def _relative_change(baseline: float, current: float) -> float:
    if abs(baseline) > 1e-12:
        return (current - baseline) / abs(baseline)
    return math.inf if abs(current) > 1e-12 else 0.0


def _judge(direction: str, baseline: float, current: float, tolerance: float):
    rel = _relative_change(baseline, current)
    # Near-zero baselines make relative change explode; fall back to an
    # absolute-tolerance band there (overheads hovering at ~0).
    if abs(baseline) <= 1e-12:
        moved = abs(current - baseline) > tolerance
        rel_reported = rel if math.isfinite(rel) else None
    else:
        moved = abs(rel) > tolerance
        rel_reported = rel
    if not moved:
        return rel_reported, "ok"
    worse = (
        rel > 0
        if direction == LOWER_BETTER
        else rel < 0
        if direction == HIGHER_BETTER
        else True  # STABLE: any drift beyond tolerance is a regression
    )
    return rel_reported, ("regression" if worse else "improvement")


def compare_artifacts(
    baseline: dict, current: dict, tolerance: float = 0.1
) -> BenchComparison:
    """Diff two artifacts of the same benchmark under its directions."""
    name = current.get("name", "?")
    comparison = BenchComparison(name=name, tolerance=tolerance)
    if baseline.get("name") != name:
        comparison.notes.append(
            f"comparing different benchmarks: {baseline.get('name')!r} vs {name!r}"
        )
        comparison.config_match = False
    elif baseline.get("config_digest") != current.get("config_digest"):
        comparison.config_match = False
        comparison.notes.append(
            "config digests differ "
            f"({baseline.get('config_digest')} vs {current.get('config_digest')}); "
            "deltas reflect the config change, not just the code"
        )
    directions = BENCHES[name].directions if name in BENCHES else {}
    base_sim = baseline.get("sim", {})
    cur_sim = current.get("sim", {})
    for metric in sorted(set(base_sim) | set(cur_sim)):
        direction = directions.get(metric, STABLE)
        if metric not in base_sim:
            comparison.deltas.append(
                MetricDelta(metric, None, cur_sim[metric], direction, None, "new")
            )
            continue
        if metric not in cur_sim:
            comparison.deltas.append(
                MetricDelta(metric, base_sim[metric], None, direction, None, "missing")
            )
            continue
        rel, status = _judge(direction, base_sim[metric], cur_sim[metric], tolerance)
        comparison.deltas.append(
            MetricDelta(metric, base_sim[metric], cur_sim[metric], direction, rel, status)
        )
    return comparison


def render_comparison(comparison: BenchComparison) -> str:
    """Human-readable comparison table plus the verdict line."""
    lines = [
        f"bench {comparison.name} (tolerance ±{comparison.tolerance:.0%})"
    ]
    for note in comparison.notes:
        lines.append(f"  note: {note}")
    width = max((len(d.metric) for d in comparison.deltas), default=6)
    for delta in comparison.deltas:
        base = "—" if delta.baseline is None else f"{delta.baseline:.4g}"
        cur = "—" if delta.current is None else f"{delta.current:.4g}"
        rel = "" if delta.rel is None else f" ({delta.rel:+.1%})"
        marker = {
            "ok": " ",
            "regression": "✗",
            "improvement": "✓",
            "new": "+",
            "missing": "-",
        }[delta.status]
        lines.append(
            f"  {marker} {delta.metric.ljust(width)}  {base} -> {cur}{rel}"
            + ("" if delta.status == "ok" else f"  [{delta.status}]")
        )
    verdict = (
        "no regressions"
        if comparison.ok
        else f"{len(comparison.regressions)} regression(s)"
    )
    lines.append(f"  verdict: {verdict}")
    return "\n".join(lines)
