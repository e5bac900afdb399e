"""The seam roster: every place the traced pass measures, in one table.

One row per (seam, metric).  ``target`` is the dotted public name the
wrapper is installed on (class methods on the class that defines them);
``kind`` says how the seam's spans become the metric:

``self``    sum of self time (total minus child spans), seconds
``total``   sum of total time, seconds — for stage functions whose whole
            subtree belongs to the stage
``median``  median single-call time, seconds
``max``     slowest single call, seconds
``calls``   exact number of calls
``watch:A`` exact sum of attribute ``A`` over the distinct receivers
            (``args[0]``) seen at the seam, read when the pass ends

Per-instruction ``machine`` ops (``core.alu.add`` ...) are deliberately
not seams: a wrapper costs more than the ~4 µs it would measure.  That
layer is covered by the exact instruction count plus its probe.
"""

from __future__ import annotations

import statistics
from typing import NamedTuple

from .trace import Tracer, span_name


class Seam(NamedTuple):
    layer: str
    target: str
    metric: str
    kind: str = "self"


def _rows(layer: str, metric: str, owner: str, *attrs: str, kind: str = "self"):
    return [Seam(layer, f"{owner}.{attr}", metric, kind) for attr in attrs]


#: the span ``workloads.py`` opens itself around ``scenario.make_ops`` — a
#: dataclass field on the scenario instance, so it has no class-level name
MAKE_OPS_SPAN = "workloads.make_ops"

SEAMS: list[Seam] = [
    # -- harness: the four drivers; their self time is driver set-up and
    # tear-down (everything outside Environment.run) -----------------------
    *_rows("harness", "harness.driver_self_s", "repro.harness.pipeline",
           "run_orthrus_server", "run_vanilla_server", "run_rbv_server"),
    Seam("harness", "repro.harness.chaos.run_chaos_server", "harness.driver_self_s"),
    Seam("harness", "repro.harness.pipeline.run_vanilla_server",
         "harness.vanilla_s", "total"),
    Seam("baselines", "repro.harness.pipeline.run_rbv_server",
         "baselines.rbv_s", "total"),
    # -- sim: kernel + generator resume + driver-process code between seams
    Seam("sim", "repro.sim.events.Environment.run", "sim.step_self_s"),
    Seam("sim", "repro.sim.events.Environment.run", "sim.events",
         "watch:events_processed"),
    Seam("machine", "repro.machine.core.Core.__init__", "machine.instructions",
         "watch:instructions"),
    # -- request path ---------------------------------------------------------
    Seam("apps", "repro.apps.common.AppServer.handle", "apps.control_self_s"),
    Seam("runtime", "repro.runtime.orthrus.OrthrusRuntime.run_closure",
         "runtime.app_exec_self_s"),
    Seam("runtime", "repro.runtime.orthrus.OrthrusRuntime.run_closure",
         "runtime.closures", "calls"),
    *_rows("closures", "closures.context_self_s",
           "repro.closures.context.ExecutionContext",
           "load", "store", "allocate", "delete"),
    *_rows("memory", "memory.heap_self_s", "repro.memory.heap.VersionedHeap",
           "allocate", "store", "latest", "version", "visible_at"),
    *_rows("memory", "memory.reclaim_self_s",
           "repro.memory.reclaim.ReclamationManager",
           "closure_started", "closure_finished", "reclaim_now"),
    Seam("memory", "repro.memory.heap.VersionedHeap.reclaim_before",
         "memory.reclaim_self_s"),
    # -- validation plane -----------------------------------------------------
    *_rows("validation", "validation.validate_self_s",
           "repro.validation.validator.Validator", "validate", "skip", "drop"),
    *_rows("validation", "validation.queue_s",
           "repro.validation.queues.QueueSet", "push", "pop"),
    *_rows("validation", "validation.watchdog_s",
           "repro.validation.watchdog.ValidationWatchdog",
           "dispatched", "completed", "expired", "plan_redispatch", "abandon"),
    *_rows("runtime", "runtime.sampler_s",
           "repro.runtime.sampling.AdaptiveSampler",
           "decide", "observe_delay", "on_validated"),
    # -- observers ------------------------------------------------------------
    *_rows("obs", "obs.registry_s", "repro.obs.metrics.MetricsRegistry",
           "counter", "gauge", "histogram"),
    *_rows("obs", "obs.metric_lookups", "repro.obs.metrics.MetricsRegistry",
           "counter", "gauge", "histogram", kind="calls"),
    Seam("obs", "repro.obs.trace.Tracer.emit", "obs.tracer_s"),
    Seam("obs", "repro.obs.spans.SpanTracer.record", "obs.tracer_s"),
    Seam("obs", "repro.obs.timeseries.TimeSeriesRecorder.sample",
         "obs.timeseries_s"),
    # -- fault-injection campaign stages -------------------------------------
    Seam("faultinject", "repro.faultinject.campaign.FaultInjectionCampaign.profile",
         "faultinject.profile_s", "total"),
    Seam("faultinject", "repro.faultinject.campaign.FaultInjectionCampaign.plan_faults",
         "faultinject.plan_s", "total"),
    Seam("faultinject", "repro.faultinject.campaign.FaultInjectionCampaign.run_trial",
         "faultinject.trial_s", "median"),
    Seam("faultinject", "repro.faultinject.campaign.FaultInjectionCampaign.run_trial",
         "faultinject.trials", "calls"),
    # -- fleet stages, composed by the benchmark from the public exports ------
    Seam("fleet", "repro.fleet.topology.FleetTopology.__init__",
         "fleet.topology_s", "total"),
    Seam("fleet", "repro.fleet.plan_fleet", "fleet.plan_s", "total"),
    Seam("fleet", "repro.fleet.ring.ConsistentHashRing.__init__",
         "fleet.ring_build_s", "total"),
    Seam("fleet", "repro.fleet.runner.compile_fleet_chaos",
         "fleet.chaos_compile_s", "total"),
    Seam("fleet", "repro.fleet.simulate_shard", "fleet.simulate_s", "total"),
    Seam("fleet", "repro.fleet.simulate_shard", "fleet.simulate_max_s", "max"),
    *_rows("fleet", "fleet.merge_s", "repro.fleet", "merge_events",
           "fleet_digest", "merge_registries", "merge_timelines", kind="total"),
]


def install_targets() -> dict[str, tuple[bool, bool]]:
    """``target → (keep samples, watch receivers)`` for :meth:`Tracer.installed`."""
    targets: dict[str, tuple[bool, bool]] = {}
    for seam in SEAMS:
        keep, watch = targets.get(seam.target, (False, False))
        targets[seam.target] = (
            keep or seam.kind in ("median", "max"),
            watch or seam.kind.startswith("watch:"),
        )
    return targets


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Fold one finished pass into the seam metrics (seconds and counts)."""
    by_name: dict[str, list] = {}
    for _path, node in tracer.root.walk():
        by_name.setdefault(node.name, []).append(node)
    out: dict[str, float] = {}
    for seam in SEAMS:
        name = span_name(seam.target)
        nodes = by_name.get(name, [])
        if seam.kind == "self":
            value = sum(node.self_ns for node in nodes) / 1e9
        elif seam.kind == "total":
            value = sum(node.total_ns for node in nodes) / 1e9
        elif seam.kind == "calls":
            value = sum(node.calls for node in nodes)
        elif seam.kind in ("median", "max"):
            samples = [s for node in nodes for s in node.samples]
            fold = statistics.median if seam.kind == "median" else max
            value = fold(samples) / 1e9 if samples else 0.0
        else:
            attr = seam.kind.removeprefix("watch:")
            value = sum(
                getattr(obj, attr) for obj in tracer.watched.get(name, {}).values()
            )
        out[seam.metric] = out.get(seam.metric, 0) + value
    out["workloads.make_ops_s"] = (
        sum(node.total_ns for node in by_name.get(MAKE_OPS_SPAN, [])) / 1e9
    )
    return out
