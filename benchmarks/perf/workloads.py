"""The eight benchmark workloads.

Each timed repeat is one full deterministic simulation.  ``run`` returns
what the repeat *observed* — digests and exact counts read from public
results — which the runner compares with the pins in ``expected.json``.
The only input is the seed: it feeds ``PipelineConfig.seed`` (and through
it ``make_ops``), ``InjectionConfig.seed``, ``FleetConfig.seed`` and
``FleetFaultPlan.generate``.

Sizes are half the paper-figure sizes (README: "Sizes") so that one run of
the contract command, three set-ups included, fits its time cap.
"""

from __future__ import annotations

import pickle
from time import perf_counter

import repro.fleet as fleet
from repro.faultinject import (
    FaultInjectionCampaign,
    FleetFaultPlan,
    InjectionConfig,
    ValidatorChaosConfig,
)
from repro.fleet.merge import merge_audit
from repro.fleet.report import FleetReport
from repro.harness import pipeline
from repro.harness.scenarios import (
    lsmtree_scenario,
    masstree_scenario,
    memcached_scenario,
)
from repro.obs import Observability, TimeSeriesConfig
from repro.runtime.degradation import FaultToleranceConfig

from .probes import PROBES
from .seams import MAKE_OPS_SPAN


def _scenario(factory, tracer):
    scenario = factory()
    if tracer is not None:
        scenario.make_ops = tracer.wrap(scenario.make_ops, MAKE_OPS_SPAN)
    return scenario


def _observe(result) -> dict:
    """Digest and exact counts of one DES run, from its public result."""
    metrics = result.metrics
    observed = {
        "digest": result.digest,
        "crashed": result.crashed,
        "operations": metrics.operations,
        "validation.validated": metrics.validated,
        "validation.skipped": metrics.skipped,
        "harness.sim_kops": metrics.operations / metrics.duration / 1e3,
    }
    if result.runtime is not None:
        heap = result.runtime.heap
        observed["memory.versions_created"] = heap.versions_created
        observed["memory.versions_reclaimed"] = heap.versions_reclaimed
    return observed


class Workload:
    """One named workload at one seed."""

    name = ""
    why = ""
    #: (full, quick) size; what it counts is the subclass's business
    size = (0, 0)
    #: False for workloads no seam can see into (the probes time themselves)
    traced = True

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.n = self.size[1 if quick else 0]
        #: simulated operations one repeat completes
        self.ops = self.n
        #: per-layer values a repeat measures itself, outside the tracer
        self.layer_values: dict[str, float] = {}

    def run(self, tracer=None) -> dict:
        raise NotImplementedError

    def reference_run(self) -> dict:
        """Traced mode only: the untraced run each traced pass is held against."""
        return self.run()

    def extras(self, untraced_wall_s: float) -> dict:
        """Traced mode only: per-layer metrics that need extra untraced runs."""
        return {}


class KvRead(Workload):
    name = "kv_read"
    why = ("memcached ~90% reads, 2 app / 2 validation cores, observers off: the "
           "fig6/fig8 common case - control path, machine issue, 100% validation")
    size = (4000, 300)

    def run(self, tracer=None):
        return _observe(pipeline.run_orthrus_server(
            _scenario(memcached_scenario, tracer), self.n,
            pipeline.PipelineConfig(seed=self.seed),
        ))


class LsmWrite(Workload):
    name = "lsm_write"
    why = ("LSM-tree YCSB writes, same driver and cores as kv_read: every op creates "
           "versions, long closures, compaction, reclamation - memory and validation "
           "used the other way")
    size = (800, 100)

    def run(self, tracer=None):
        return _observe(pipeline.run_orthrus_server(
            _scenario(lsmtree_scenario, tracer), self.n,
            pipeline.PipelineConfig(seed=self.seed),
        ))


class OverloadObs(Workload):
    name = "overload_obs"
    why = ("masstree, 4 app / 1 validation core, observers + time series + audit on: "
           "the only workload where the sampler skips, the Store backlog is deep and "
           "every .enabled guard is taken")
    size = (1500, 200)

    def _run(self, tracer, observers: bool):
        obs = Observability() if observers else None
        result = pipeline.run_orthrus_server(
            _scenario(masstree_scenario, tracer), self.n,
            pipeline.PipelineConfig(
                seed=self.seed, app_threads=4, validation_cores=1, obs=obs,
                timeseries=TimeSeriesConfig() if observers else None,
                audit=True if observers else None,
            ),
        )
        observed = _observe(result)
        if observers:
            observed["obs.trace_events"] = len(obs.tracer)
        return observed

    def run(self, tracer=None):
        return self._run(tracer, observers=True)

    def extras(self, untraced_wall_s):
        start = perf_counter()
        self._run(None, observers=False)
        return {"obs.overhead_frac": untraced_wall_s / (perf_counter() - start) - 1}


class Baselines(Workload):
    name = "baselines"
    why = ("memcached through the vanilla and RBV drivers: no validator, sampler or "
           "queues, same sim/machine/memory/apps as kv_read - predicted no change "
           "for a validation-plane optimisation")
    size = (2500, 200)

    def __init__(self, seed, quick):
        super().__init__(seed, quick)
        self.ops = 2 * self.n

    def run(self, tracer=None):
        config = pipeline.PipelineConfig(seed=self.seed)
        vanilla = pipeline.run_vanilla_server(
            _scenario(memcached_scenario, tracer), self.n, config)
        rbv = pipeline.run_rbv_server(
            _scenario(memcached_scenario, tracer), self.n, config)
        observed = _observe(vanilla)
        observed.update({
            "operations": vanilla.metrics.operations + rbv.metrics.operations,
            "crashed": vanilla.crashed or rbv.crashed,
            "rbv.digest": rbv.digest,
            "rbv.validated": rbv.metrics.validated,
            "rbv.detections": rbv.rbv_detections,
        })
        return observed


class ChaosPlane(Workload):
    name = "chaos_plane"
    why = ("memcached on the fault-tolerant plane, 2 app / 4 validation cores, a "
           "quarter of validators crashing and a quarter hanging: the second driver "
           "(QueueSet, watchdog, ladder)")
    size = (4000, 300)

    def run(self, tracer=None):
        result = pipeline.run_orthrus_server(
            _scenario(memcached_scenario, tracer), self.n,
            pipeline.PipelineConfig(
                seed=self.seed, app_threads=2, validation_cores=4,
                fault_tolerance=FaultToleranceConfig(),
                validator_faults=ValidatorChaosConfig.parse(["crash=0.25", "hang=0.25"]),
            ),
        )
        observed = _observe(result)
        observed["conserved"] = result.ft.conserved
        observed["validation.redispatches"] = result.ft.redispatches
        return observed


class InjectCampaign(Workload):
    name = "inject_campaign"
    why = ("Table-2 fault-injection campaign on memcached: many short runs on armed "
           "cores - set-up dominated, and the only workload on Core._issue's faulty path")
    #: requests per trial; 10 faults (3 when quick)
    size = (400, 100)

    def __init__(self, seed, quick):
        super().__init__(seed, quick)
        self.faults = 3 if quick else 10
        self.ops = self.n * self.faults

    def run(self, tracer=None):
        campaign = FaultInjectionCampaign(
            _scenario(memcached_scenario, tracer), self.n,
            InjectionConfig(n_faults=self.faults, seed=self.seed),
            make_pipeline=lambda: pipeline.PipelineConfig(
                seed=self.seed, drain_grace_fraction=4.0),
            runner=pipeline.run_orthrus_server,
            rbv_runner=None,
        )
        result = campaign.run()
        return {
            "digest": result.golden.digest,
            "outcomes": {k.value: v for k, v in result.outcome_counts().items()},
            "faultinject.detected": sum(t.orthrus_detected for t in result.trials),
        }


class FleetRollup(Workload):
    name = "fleet_rollup"
    why = ("48-host / 96-shard model fleet with chaos, no grounded shards, 2 workers: "
           "bypasses the DES entirely - ring construction, chaos compile, shard model, "
           "pickling and merge do all the work")
    #: hosts; two shards per host
    size = (48, 8)
    workers = 2

    def __init__(self, seed, quick):
        super().__init__(seed, quick)
        self.config = fleet.FleetConfig(
            hosts=self.n, shards=2 * self.n, scale=0.02, epochs=32, ground_shards=0,
            load_factor=4.0, min_coverage=0.5, seed=seed,
            faults=FleetFaultPlan.generate(
                hosts=self.n, epochs=32, crashes=3, partitions=2, seed=seed),
        )
        self.ops = int(self.config.total_ops * self.config.load_factor)

    @staticmethod
    def _observe(report) -> dict:
        return {
            "digest": report.digest,
            "operations": report.rollup["ops"],
            "balanced": report.rollup["conservation"]["balanced"],
            "fleet.shards": len(report.shards),
            "fleet.events": len(report.events),
        }

    def run(self, tracer=None):
        if tracer is None:
            return self._observe(fleet.run_fleet(self.config, workers=self.workers))
        return self._run_staged()

    def _run_staged(self):
        """``run_fleet(workers=1)`` composed from the exported stages, so
        each stage passes a seam; the runner holds its digest against the
        real ``run_fleet`` (``reference_run``)."""
        config = self.config
        topology = fleet.FleetTopology(config)
        plans = fleet.plan_fleet(topology)
        results = [fleet.simulate_shard(plan, config) for plan in plans]
        events = fleet.merge_events(results)
        report = FleetReport(
            config=config,
            topology=topology.describe(),
            digest=fleet.fleet_digest(config, events),
            events=events,
            registry=fleet.merge_registries(results),
            timeline=fleet.merge_timelines(results, cadence=config.epoch_s),
            shards=[r.summary for r in sorted(results, key=lambda r: r.shard_id)],
            grounds=[],
            ground_metrics=[],
            workers=1,
            wall_s=0.0,
            audit=merge_audit(results),
        )
        report.finalize()
        observed = self._observe(report)
        # What the fan-out would pickle: one payload out and one result
        # list back per host group (hosts dealt round-robin, as run_fleet).
        groups = [
            [(plan, result) for plan, result in zip(plans, results)
             if plan.host_id % self.workers == w]
            for w in range(self.workers)
        ]
        observed["fleet.pickle_bytes"] = sum(
            len(pickle.dumps((config, [p for p, _ in group], False)))
            + len(pickle.dumps(([r for _, r in group], None)))
            for group in groups
        )
        return observed

    def reference_run(self):
        return self._observe(fleet.run_fleet(self.config, workers=1))

    def extras(self, untraced_wall_s):
        start = perf_counter()
        fleet.run_fleet(self.config, workers=self.workers)
        return {
            "fleet.run_w1_s": untraced_wall_s,
            "fleet.w2_over_w1": (perf_counter() - start) / untraced_wall_s,
        }


class LayerProbes(Workload):
    name = "layer_probes"
    why = ("isolated fixed-count loops over one public function per layer: the "
           "micro-benches that say which layer moved when a DES workload does")
    #: divisor applied to every probe's loop count
    size = (1, 10)
    traced = False

    def __init__(self, seed, quick):
        super().__init__(seed, quick)
        self.ops = 0

    def run(self, tracer=None):
        observed = {}
        calls_total = 0
        for probe in PROBES:
            elapsed_ns, calls, check = probe.fn(max(1, probe.n // self.n), self.seed)
            self.layer_values[probe.metric] = elapsed_ns / calls / probe.scale
            observed[probe.metric.rsplit("_", 1)[0]] = check
            calls_total += calls
        self.ops = calls_total
        return observed


WORKLOADS = {
    cls.name: cls
    for cls in (KvRead, LsmWrite, OverloadObs, Baselines, ChaosPlane,
                InjectCampaign, FleetRollup, LayerProbes)
}

