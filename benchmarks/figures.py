"""One definition per paper table, figure and ablation (§4).

Each definition is ``name(scale) -> dict``: it builds the scenario and
configs of its ``bench_<name>.py``, runs them, and returns a flat mapping
of every number the bench prints or asserts on (floats, ints, ``None``
for an absent RBV arm, and a stable digest wherever the bench compares
two runs' whole results).  The bench renders the table and checks the
paper's shape from that mapping; ``tests/test_figures.py`` holds the same
mapping equal to ``tests/fixtures/figures.json`` at a small scale.  So
there is one answer to "what is Fig 6", and a change that moves any of
its numbers shows as a fixture diff.

Workload sizes scale with the ``REPRO_BENCH_SCALE`` environment variable
(default 1.0): raise it for tighter statistics, lower it for a faster
smoke pass.
"""

from __future__ import annotations

import functools
import math
import os
from collections import Counter

from repro.determinism import stable_digest
from repro.faultinject.campaign import FaultInjectionCampaign
from repro.faultinject.classify import overall_detection_rate
from repro.faultinject.config import InjectionConfig
from repro.harness.phoenix import run_phoenix
from repro.harness.pipeline import (
    PipelineConfig,
    run_orthrus_server,
    run_rbv_server,
    run_vanilla_server,
)
from repro.harness.scenarios import (
    lsmtree_scenario,
    masstree_scenario,
    memcached_scenario,
    phoenix_scenario,
)
from repro.machine.cpu import Machine
from repro.machine.units import Unit
from repro.runtime.sampling import AdaptiveSampler, RandomSampler, SamplerConfig
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.metrics import slowdown
from repro.workloads.alex import AlexWorkload
from repro.workloads.base import OpKind
from repro.workloads.cachelib import CacheLibWorkload
from repro.workloads.wordcount import WordCountCorpus
from repro.workloads.ycsb import YcsbWriteWorkload
from repro.workloads.zipf import ZipfSampler

#: the three request-serving apps, in table order, and all four
SERVERS = ("memcached", "masstree", "lsmtree")
APPS = (*SERVERS, "phoenix")


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
def bench_scale() -> float:
    """``REPRO_BENCH_SCALE``: a finite number > 0, else a one-line
    ``ValueError`` naming the variable and the value."""
    raw = os.environ.get("REPRO_BENCH_SCALE", "1.0")
    try:
        scale = float(raw)
    except ValueError:
        scale = math.nan
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"REPRO_BENCH_SCALE must be a finite number > 0, got {raw!r}")
    return scale


def scaled(value: int, scale: float, minimum: int = 1) -> int:
    return max(minimum, int(value * scale))


def print_table(title: str, headers: list[str], rows: list[list[str]]) -> None:
    """Render a paper-style results table to stdout."""
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    line = "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row)))
    print()


def pct(value: float) -> str:
    return f"{100 * value:.1f}%"


def _server_scenarios():
    return (memcached_scenario(), masstree_scenario(), lsmtree_scenario())


# ----------------------------------------------------------------------
# Table 1 — applications and datasets
# ----------------------------------------------------------------------
def table1_workloads(scale: float) -> dict:
    """Each workload generator's published trait, measured."""
    n_ops = scaled(20000, scale)
    cachelib = CacheLibWorkload(n_keys=1000, skew=1.2, seed=1)
    kinds = Counter(op.kind for op in cachelib.ops(n_ops))
    out = {
        "memcached.read_fraction": kinds[OpKind.GET] / n_ops,
        "memcached.head_mass": ZipfSampler(1000, 1.2, seed=1).head_mass(0.2),
    }
    alex = AlexWorkload(n_keys=1000, seed=1)
    kinds = Counter(op.kind for op in alex.ops(n_ops))
    out["masstree.scan_fraction"] = kinds[OpKind.SCAN] / n_ops
    out["masstree.update_fraction"] = kinds[OpKind.UPDATE] / n_ops
    ycsb = YcsbWriteWorkload(n_keys=1000, seed=1)
    kinds = Counter(op.kind for op in ycsb.ops(n_ops))
    out["lsmtree.write_fraction"] = kinds[OpKind.PUT] / n_ops
    corpus = WordCountCorpus(n_words=scaled(20000, scale), vocabulary_size=500, seed=1)
    counts = sorted(corpus.reference_counts().values(), reverse=True)
    out["phoenix.head_mass"] = sum(counts[: len(counts) // 5]) / sum(counts)
    mix = Counter(op.kind for op in CacheLibWorkload(n_keys=100, seed=1).ops(5000))
    out["mix.gets"] = mix[OpKind.GET]
    out["mix.sets"] = mix[OpKind.SET]
    return out


# ----------------------------------------------------------------------
# Table 2 — SDC detection capability by injected error type
# ----------------------------------------------------------------------
TABLE2_UNITS = (Unit.ALU, Unit.FPU, Unit.SIMD, Unit.CACHE)

TABLE2_APPS = [
    ("memcached", lambda: memcached_scenario(n_keys=80), 600, None, None),
    ("masstree", lambda: masstree_scenario(n_keys=80), 450, None, None),
    ("lsmtree", lambda: lsmtree_scenario(n_keys=80), 450, None, None),
    (
        "phoenix",
        lambda: phoenix_scenario(words_per_chunk=120, vocabulary_size=80),
        3000,
        functools.partial(run_phoenix, variant="orthrus"),
        functools.partial(run_phoenix, variant="rbv"),
    ),
]


def table2_coverage(scale: float) -> dict:
    """Per-app, per-unit SDC coverage of Orthrus and RBV at full
    validation capacity, and the overall rates."""
    n_faults = scaled(64, scale, minimum=16)
    out: dict = {}
    all_trials = []
    for name, make_scenario, size, runner, rbv_runner in TABLE2_APPS:
        kwargs = {}
        if runner is not None:
            kwargs["runner"] = runner
        if rbv_runner is not None:
            kwargs["rbv_runner"] = rbv_runner
        campaign = FaultInjectionCampaign(
            make_scenario(),
            workload_size=size,
            injection=InjectionConfig(n_faults=n_faults, seed=13, trigger_rate=1.0),
            # Validation cores = application cores and an ample drain
            # window: Table 2 measures the *upper bound* of detection
            # capability, so no log is dropped for timeliness.
            make_pipeline=lambda: PipelineConfig(
                app_threads=2, validation_cores=2, seed=17,
                drain_grace_fraction=4.0,
            ),
            **kwargs,
        )
        result = campaign.run()
        table = result.coverage_table()
        for unit in TABLE2_UNITS:
            row = table[unit]
            key = f"{name}.{unit.value}"
            out[f"{key}.total_sdcs"] = row.total_sdcs
            out[f"{key}.rbv_detected"] = row.rbv_detected
            out[f"{key}.rbv_rate"] = row.rbv_rate
            out[f"{key}.orthrus_detected"] = row.orthrus_detected
            out[f"{key}.orthrus_rate"] = row.orthrus_rate
        all_trials.extend(result.sdc_trials)
    out["overall.sdc_trials"] = len(all_trials)
    out["overall.orthrus_rate"] = (
        sum(t.orthrus_detected for t in all_trials) / len(all_trials)
        if all_trials else 0.0
    )
    rbv_known = [t for t in all_trials if t.rbv_detected is not None]
    out["overall.rbv_rate"] = sum(t.rbv_detected for t in rbv_known) / max(1, len(rbv_known))
    return out


# ----------------------------------------------------------------------
# Figure 6 — application performance: vanilla vs Orthrus vs RBV
# ----------------------------------------------------------------------
def _fig6_config():
    return PipelineConfig(app_threads=2, validation_cores=2, seed=1)


def fig6_performance(scale: float) -> dict:
    """The vanilla baseline, Orthrus and RBV overheads over it, and the
    Orthrus memory overhead of each app."""
    n_ops = scaled(2500, scale)
    n_words = scaled(40000, scale)
    out: dict = {}
    for scenario in _server_scenarios():
        vanilla = run_vanilla_server(scenario, n_ops, _fig6_config())
        orthrus = run_orthrus_server(scenario, n_ops, _fig6_config())
        rbv = run_rbv_server(scenario, n_ops, _fig6_config())
        name = scenario.name
        out[f"{name}.vanilla_throughput"] = vanilla.metrics.throughput
        out[f"{name}.orthrus_overhead"] = slowdown(
            vanilla.metrics.throughput, orthrus.metrics.throughput
        )
        out[f"{name}.rbv_overhead"] = slowdown(vanilla.metrics.throughput, rbv.metrics.throughput)
        out[f"{name}.memory_overhead"] = orthrus.metrics.memory_overhead
    phx = phoenix_scenario()
    cfg = lambda: PipelineConfig(app_threads=4, validation_cores=2, seed=1)
    vanilla = run_phoenix(phx, n_words, cfg(), variant="vanilla")
    orthrus = run_phoenix(phx, n_words, cfg(), variant="orthrus")
    rbv = run_phoenix(phx, n_words, cfg(), variant="rbv")
    base = vanilla.metrics.duration
    out["phoenix.vanilla_duration"] = base
    out["phoenix.orthrus_overhead"] = orthrus.metrics.duration / base - 1
    out["phoenix.rbv_overhead"] = rbv.metrics.duration / base - 1
    out["phoenix.memory_overhead"] = orthrus.metrics.memory_overhead
    return out


# ----------------------------------------------------------------------
# Figure 7 — p95 request latency of the latency-critical apps
# ----------------------------------------------------------------------
def fig7_tail_latency(scale: float) -> dict:
    """p95 and worst-case request latency of each arm, per server app."""
    n_ops = scaled(4000, scale)
    out: dict = {}
    for scenario in _server_scenarios():
        cfg = lambda: PipelineConfig(app_threads=2, validation_cores=2, seed=1)
        arms = (
            ("vanilla", run_vanilla_server(scenario, n_ops, cfg())),
            ("orthrus", run_orthrus_server(scenario, n_ops, cfg())),
            ("rbv", run_rbv_server(scenario, n_ops, cfg())),
        )
        for arm, result in arms:
            latency = result.metrics.request_latency
            out[f"{scenario.name}.{arm}.p95"] = latency.p95
            out[f"{scenario.name}.{arm}.max"] = latency.max
    return out


# ----------------------------------------------------------------------
# Figure 8 — closure validation latency, Orthrus vs RBV
# ----------------------------------------------------------------------
def fig8_validation_latency(scale: float) -> dict:
    """Mean and p95 validation latency of Orthrus and RBV, per app."""
    n_ops = scaled(3000, scale)
    n_words = scaled(30000, scale)
    runs = {}
    for scenario in _server_scenarios():
        cfg = lambda: PipelineConfig(app_threads=2, validation_cores=2, seed=1)
        runs[scenario.name] = (
            run_orthrus_server(scenario, n_ops, cfg()),
            run_rbv_server(scenario, n_ops, cfg()),
        )
    phx = phoenix_scenario()
    cfg = lambda: PipelineConfig(app_threads=4, validation_cores=2, seed=1)
    runs["phoenix"] = (
        run_phoenix(phx, n_words, cfg(), variant="orthrus"),
        run_phoenix(phx, n_words, cfg(), variant="rbv"),
    )
    out: dict = {}
    for name, (orthrus, rbv) in runs.items():
        for arm, result in (("orthrus", orthrus), ("rbv", rbv)):
            latency = result.metrics.validation_latency
            out[f"{name}.{arm}.mean"] = latency.mean
            out[f"{name}.{arm}.p95"] = latency.p95
    return out


# ----------------------------------------------------------------------
# Figures 9 and 10 — SDC detection rate vs validation cores / memory
# ----------------------------------------------------------------------
CORES = (1, 2, 4)
HEADROOMS = (0.05, 0.15, 0.25, 0.40)

FIG9_APPS = [
    ("memcached", lambda: memcached_scenario(n_keys=100), 1200, None, 4),
    ("masstree", lambda: masstree_scenario(n_keys=100), 800, None, 4),
    ("lsmtree", lambda: lsmtree_scenario(n_keys=100), 800, None, 4),
    (
        "phoenix",
        lambda: phoenix_scenario(words_per_chunk=60, vocabulary_size=80),
        6000,
        functools.partial(run_phoenix, variant="orthrus"),
        8,
    ),
]

FIG10_APPS = [
    ("memcached", lambda: memcached_scenario(n_keys=100), 1200, None, None, 8),
    ("masstree", lambda: masstree_scenario(n_keys=100), 800, None, None, 8),
    ("lsmtree", lambda: lsmtree_scenario(n_keys=100), 800, None, None, 8),
    (
        "phoenix",
        lambda: phoenix_scenario(words_per_chunk=60, vocabulary_size=80),
        6000,
        functools.partial(run_phoenix, variant="orthrus"),
        functools.partial(run_phoenix, variant="vanilla"),
        8,
    ),
]


def _sampler_config():
    # Thresholds scaled to the harness's microsecond-scale virtual runs.
    return SamplerConfig(
        delay_threshold=2e-6, staleness_threshold=10e-6, min_rate=0.05
    )


def _fig9_campaign(make_scenario, size, runner, threads, cores, sampler_cls, n_faults):
    kwargs = {"runner": runner} if runner is not None else {}
    campaign = FaultInjectionCampaign(
        make_scenario(),
        workload_size=size,
        injection=InjectionConfig(n_faults=n_faults, seed=3, trigger_rate=0.6),
        make_pipeline=lambda: PipelineConfig(
            app_threads=threads,
            validation_cores=cores,
            seed=5,
            drain_grace_fraction=0.5,
            sampler_factory=lambda seed: sampler_cls(_sampler_config(), seed=seed),
        ),
        rbv_runner=None,
        **kwargs,
    )
    return campaign.run()


def fig9_coverage_cores(scale: float) -> dict:
    """Detection rate and SDC count per (app, cores, sampler), and the
    all-app averages the paper quotes."""
    n_faults = scaled(40, scale, minimum=16)
    out: dict = {}
    trials: dict = {}
    for name, make_scenario, size, runner, threads in FIG9_APPS:
        for cores in CORES:
            for sampler_cls in (AdaptiveSampler, RandomSampler):
                result = _fig9_campaign(
                    make_scenario, size, runner, threads, cores, sampler_cls, n_faults,
                )
                key = f"{name}.{cores}.{sampler_cls.__name__}"
                out[f"{key}.detection_rate"] = result.detection_rate
                out[f"{key}.sdcs"] = len(result.sdc_trials)
                trials.setdefault((cores, sampler_cls.__name__), []).extend(result.trials)
    for cores in CORES:
        out[f"average.{cores}.AdaptiveSampler"] = overall_detection_rate(
            trials[(cores, "AdaptiveSampler")]
        )
    out["average.1.RandomSampler"] = overall_detection_rate(trials[(1, "RandomSampler")])
    return out


def _vanilla_footprint(make_scenario, size, vanilla_runner, threads):
    """Peak live bytes of the unmodified app — the budget baseline."""
    config = PipelineConfig(app_threads=threads, validation_cores=1, seed=5)
    if vanilla_runner is not None:
        result = vanilla_runner(make_scenario(), size, config)
    else:
        result = run_vanilla_server(make_scenario(), size, config)
    return max(1, result.metrics.peak_live_bytes)


def fig10_coverage_memory(scale: float) -> dict:
    """Detection rate and SDC count per (app, memory headroom over the
    vanilla footprint), with memory-triggered sampling."""
    n_faults = scaled(40, scale, minimum=12)
    out: dict = {}
    for name, make_scenario, size, runner, vanilla_runner, threads in FIG10_APPS:
        baseline = _vanilla_footprint(make_scenario, size, vanilla_runner, threads)
        out[f"{name}.vanilla_peak_bytes"] = baseline
        for headroom in HEADROOMS:
            budget = baseline * (1 + headroom)
            kwargs = {"runner": runner} if runner is not None else {}
            campaign = FaultInjectionCampaign(
                make_scenario(),
                workload_size=size,
                injection=InjectionConfig(
                    n_faults=n_faults, seed=3, trigger_rate=0.6
                ),
                # Two validation cores, memory-triggered sampling (§4.4).
                make_pipeline=lambda b=budget, t=threads: PipelineConfig(
                    app_threads=t,
                    validation_cores=2,
                    seed=5,
                    drain_grace_fraction=0.5,
                    memory_budget_bytes=b,
                    sampler_factory=lambda seed: AdaptiveSampler(
                        _sampler_config(), seed=seed
                    ),
                ),
                rbv_runner=None,
                **kwargs,
            )
            result = campaign.run()
            out[f"{name}.{headroom}.detection_rate"] = result.detection_rate
            out[f"{name}.{headroom}.sdcs"] = len(result.sdc_trials)
    return out


# ----------------------------------------------------------------------
# Ablations (§3.5, §3.6, §4.2)
# ----------------------------------------------------------------------
def ablation_checksum(scale: float) -> dict:
    """A1: Orthrus throughput with and without control-path CRCs."""
    n_ops = scaled(3000, scale)
    scenario = memcached_scenario()
    with_crc = run_orthrus_server(
        scenario, n_ops, PipelineConfig(seed=1, costs=DEFAULT_COSTS)
    )
    without_crc = run_orthrus_server(
        scenario, n_ops,
        PipelineConfig(seed=1, costs=DEFAULT_COSTS.without_checksums()),
    )
    return {
        "with_crc.throughput": with_crc.metrics.throughput,
        "without_crc.throughput": without_crc.metrics.throughput,
        "cost": slowdown(without_crc.metrics.throughput, with_crc.metrics.throughput),
    }


def ablation_safemode(scale: float) -> dict:
    """A2: the default asynchronous mode vs strict safe mode."""
    n_ops = scaled(3000, scale)
    scenario = memcached_scenario()
    # One application thread: safe-mode waits shift virtual time, and
    # with several threads that would legitimately reorder the
    # interleaving — a single thread keeps the two runs comparable
    # request-for-request.
    relaxed = run_orthrus_server(
        scenario, n_ops, PipelineConfig(app_threads=1, seed=1)
    )
    strict = run_orthrus_server(
        scenario, n_ops, PipelineConfig(app_threads=1, safe_mode=True, seed=1)
    )
    out: dict = {}
    for arm, result in (("relaxed", relaxed), ("strict", strict)):
        out[f"{arm}.throughput"] = result.metrics.throughput
        out[f"{arm}.p95"] = result.metrics.request_latency.p95
        out[f"{arm}.responses"] = stable_digest(result.responses)
    out["cost"] = slowdown(relaxed.metrics.throughput, strict.metrics.throughput)
    return out


def ablation_reclamation(scale: float) -> dict:
    """A3: write-stress LSMTree with prompt vs disabled reclamation."""
    n_ops = scaled(1500, scale)
    scenario = lsmtree_scenario()
    with_gc = run_orthrus_server(
        scenario, n_ops, PipelineConfig(seed=1, reclaim_batch=16)
    )
    no_gc = run_orthrus_server(
        scenario, n_ops, PipelineConfig(seed=1, reclaim_batch=10**9)
    )
    out: dict = {}
    for arm, result in (("with_gc", with_gc), ("no_gc", no_gc)):
        out[f"{arm}.memory_overhead"] = result.metrics.memory_overhead
        out[f"{arm}.versions_reclaimed"] = result.runtime.heap.versions_reclaimed
        out[f"{arm}.responses"] = stable_digest(result.responses)
    out["time_cost"] = slowdown(no_gc.metrics.throughput, with_gc.metrics.throughput)
    return out


def ablation_scaling(scale: float) -> dict:
    """A4: dynamic validator scaling vs 4 and 1 statically provisioned
    validation cores (Masstree, 4 app threads)."""
    n_ops = scaled(2000, scale)
    scenario = masstree_scenario()
    arms = (
        ("static_full", PipelineConfig(app_threads=4, validation_cores=4, seed=1)),
        ("dynamic", PipelineConfig(app_threads=4, validation_cores=4, seed=1,
                                   dynamic_scaling=True)),
        ("static_one", PipelineConfig(app_threads=4, validation_cores=1, seed=1)),
    )
    out: dict = {}
    for arm, config in arms:
        m = run_orthrus_server(scenario, n_ops, config).metrics
        out[f"{arm}.validated"] = m.validated
        out[f"{arm}.skipped"] = m.skipped
        out[f"{arm}.val_mean"] = m.validation_latency.mean
        out[f"{arm}.val_p95"] = m.validation_latency.p95
    return out


def ablation_numa(scale: float) -> dict:
    """A5: validators on the application's socket vs across the
    interconnect, same core counts."""
    n_ops = scaled(2500, scale)
    # Same socket: 4-core nodes put apps (cores 0-1) and validators
    # (cores 2-3) on node 0.
    same = PipelineConfig(app_threads=2, validation_cores=2, seed=1)
    same.machine = Machine(cores_per_node=4, numa_nodes=2, seed=1)
    same_result = run_orthrus_server(memcached_scenario(), n_ops, same)
    # Cross socket: 2-core nodes put the same validator core ids (2-3)
    # on node 1, behind the interconnect.
    cross = PipelineConfig(app_threads=2, validation_cores=2, seed=1)
    cross.machine = Machine(cores_per_node=2, numa_nodes=2, seed=1)
    cross_result = run_orthrus_server(memcached_scenario(), n_ops, cross)
    out: dict = {}
    for arm, result in (("same", same_result), ("cross", cross_result)):
        out[f"{arm}.val_mean"] = result.metrics.validation_latency.mean
        out[f"{arm}.val_p95"] = result.metrics.validation_latency.p95
        out[f"{arm}.responses"] = stable_digest(result.responses)
        out[f"{arm}.detections"] = result.detections
    return out


#: every definition by name; ``benchmarks/bench_<name>.py`` renders it
FIGURES = {
    fn.__name__: fn
    for fn in (
        table1_workloads,
        table2_coverage,
        fig6_performance,
        fig7_tail_latency,
        fig8_validation_latency,
        fig9_coverage_cores,
        fig10_coverage_memory,
        ablation_checksum,
        ablation_safemode,
        ablation_reclamation,
        ablation_scaling,
        ablation_numa,
    )
}
