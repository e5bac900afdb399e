"""The golden grid: DES driver configurations and one shared run of each.

``GRID`` maps a key to a runner, a scenario and ``PipelineConfig``
overrides.  :func:`grid_run` runs each key at most once per process, so
the golden pin (``test_driver_golden.py``), the in-order stream pin
(``test_stream_golden.py``) and the lifecycle taxonomy check
(``tests/obs/test_lifecycle.py``) read one run between them.  Import it as
``tests.harness.golden_grid`` everywhere, so there is one cache.
"""

import functools
import hashlib
import json

from repro.faultinject.validator_faults import ValidatorChaosConfig
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
from repro.machine.faults import Fault, FaultKind, Site
from repro.machine.units import Unit
from repro.obs import Observability, TimeSeriesConfig
from repro.obs.canary import CanaryConfig
from repro.runtime.degradation import FaultToleranceConfig
from repro.runtime.sampling import AlwaysSampler
from repro.validation.watchdog import WatchdogConfig

_SIMD_FAULT = (
    (0, Fault(unit=Unit.SIMD, kind=FaultKind.BITFLIP, bit=3,
              site=Site("mc.set", "vsum", 0))),
)
#: unscoped: only the re-executions on validation core 2 compute wrongly,
#: so every log it validates is a false mismatch
_VALIDATOR_FAULT = ((2, Fault(unit=Unit.SIMD, kind=FaultKind.BITFLIP, bit=3)),)
_OVERLOAD = dict(app_threads=4, validation_cores=1, seed=3)
_CHAOS = dict(
    validation_cores=4,
    fault_tolerance=FaultToleranceConfig(
        watchdog=WatchdogConfig(deadline=80e-6), check_interval=10e-6
    ),
    validator_faults=ValidatorChaosConfig.parse(["crash=0.25", "hang=0.25"], seed=5),
)
_ALL_OBSERVERS = dict(
    canary=CanaryConfig(period=50e-6), audit=True, timeseries=TimeSeriesConfig()
)


_ft = FaultToleranceConfig

#: ~15 flushes and several compactions in 300 ops: the SSTable buffer that
#: both peak_*_bytes include grows and shrinks throughout the run
_LSM_COMPACTING = functools.partial(lsmtree_scenario, memtable_limit=16)

#: key -> (runner, scenario factory, ops, PipelineConfig overrides).  ``obs``
#: is added by ``_run`` unless the overrides say ``obs=None``.
GRID = {
    # -- plain plane --------------------------------------------------------
    "plain/default": (run_orthrus_server, memcached_scenario, 300, {}),
    "plain/no-obs": (run_orthrus_server, memcached_scenario, 300, dict(obs=None)),
    "plain/lsmtree": (run_orthrus_server, lsmtree_scenario, 200, {}),
    "plain/lsmtree-compacting": (run_orthrus_server, _LSM_COMPACTING, 300, {}),
    "plain/canary": (run_orthrus_server, memcached_scenario, 300,
                     dict(canary=CanaryConfig(period=50e-6))),
    "plain/audit": (run_orthrus_server, memcached_scenario, 300, dict(audit=True)),
    "plain/timeseries-slo": (run_orthrus_server, memcached_scenario, 300,
                             dict(timeseries=TimeSeriesConfig())),
    "plain/safe-mode": (run_orthrus_server, memcached_scenario, 300,
                        dict(safe_mode=True)),
    "plain/dynamic-scaling": (run_orthrus_server, masstree_scenario, 500,
                              dict(app_threads=4, validation_cores=4, seed=3,
                                   dynamic_scaling=True)),
    "plain/memory-budget": (run_orthrus_server, lsmtree_scenario, 300,
                            dict(validation_cores=1, memory_budget_bytes=2000)),
    "plain/deferred-fault": (run_orthrus_server, memcached_scenario, 200,
                             dict(deferred_faults=_SIMD_FAULT)),
    "plain/validator-fault": (run_orthrus_server, memcached_scenario, 400,
                              dict(deferred_faults=_VALIDATOR_FAULT)),
    "plain/overload-all-observers": (run_orthrus_server, masstree_scenario, 500,
                                     dict(_OVERLOAD, **_ALL_OBSERVERS)),
    "plain/canary-past-deadline": (run_orthrus_server, masstree_scenario, 600,
                                   dict(_OVERLOAD, sampler=AlwaysSampler,
                                        drain_grace_fraction=0.0,
                                        canary=CanaryConfig(period=20e-6))),
    # -- fault-tolerant plane -----------------------------------------------
    "ft/default": (run_orthrus_server, memcached_scenario, 300,
                   dict(fault_tolerance=_ft())),
    "ft/no-obs": (run_orthrus_server, memcached_scenario, 300,
                  dict(fault_tolerance=_ft(), obs=None)),
    "ft/canary": (run_orthrus_server, memcached_scenario, 300,
                  dict(fault_tolerance=_ft(), canary=CanaryConfig(period=50e-6))),
    "ft/audit": (run_orthrus_server, memcached_scenario, 300,
                 dict(fault_tolerance=_ft(), audit=True)),
    "ft/timeseries-slo": (run_orthrus_server, memcached_scenario, 300,
                          dict(fault_tolerance=_ft(), timeseries=TimeSeriesConfig())),
    "ft/safe-mode": (run_orthrus_server, memcached_scenario, 300,
                     dict(fault_tolerance=_ft(), safe_mode=True)),
    "ft/memory-budget": (run_orthrus_server, lsmtree_scenario, 300,
                         dict(fault_tolerance=_ft(), validation_cores=1,
                              memory_budget_bytes=2000)),
    "ft/deferred-fault": (run_orthrus_server, memcached_scenario, 200,
                          dict(fault_tolerance=_ft(), deferred_faults=_SIMD_FAULT)),
    "ft/validator-fault": (run_orthrus_server, memcached_scenario, 400,
                           dict(fault_tolerance=_ft(), deferred_faults=_VALIDATOR_FAULT)),
    "ft/chaos-all-observers": (run_orthrus_server, memcached_scenario, 300,
                               dict(_CHAOS, sampler=AlwaysSampler, **_ALL_OBSERVERS)),
    # the canary period equals the audit cadence, so the canary issuer and
    # the audit probe wake at the same instants in the order their start
    # hooks ran: the stream sees the extension table's order
    "ft/chaos-canary-audit-tie": (run_orthrus_server, memcached_scenario, 300,
                                  dict(_CHAOS, canary=CanaryConfig(period=25e-6),
                                       audit=True)),
    "ft/overload-ladder": (run_orthrus_server, masstree_scenario, 500,
                           dict(_OVERLOAD, fault_tolerance=_ft(queue_capacity=16),
                                **_ALL_OBSERVERS)),
    "ft/block-producer": (run_orthrus_server, masstree_scenario, 400,
                          dict(_OVERLOAD, sampler=AlwaysSampler,
                               fault_tolerance=_ft(queue_capacity=8,
                                                   overflow_policy="block-producer"))),
    "ft/canary-past-deadline": (run_orthrus_server, masstree_scenario, 600,
                                dict(_OVERLOAD, sampler=AlwaysSampler,
                                     drain_grace_fraction=0.0,
                                     fault_tolerance=_ft(queue_capacity=None),
                                     canary=CanaryConfig(period=20e-6))),
    # -- the drivers that share set-up and memory tracking --------------------
    "vanilla/deferred-fault": (run_vanilla_server, memcached_scenario, 200,
                               dict(deferred_faults=_SIMD_FAULT, obs=None)),
    "vanilla/lsmtree-compacting": (run_vanilla_server, _LSM_COMPACTING, 300,
                                   dict(obs=None)),
    "rbv/default": (run_rbv_server, memcached_scenario, 200, dict(obs=None)),
    "phoenix/orthrus": ("phoenix", phoenix_scenario, 3200, dict(app_threads=4)),
    "phoenix/safe-mode": ("phoenix", phoenix_scenario, 3200,
                          dict(app_threads=4, safe_mode=True)),
}

def _registry(obs) -> dict:
    """The registry as ``name{labels} -> value | [count, sum]``."""
    flat = {}
    for family in obs.registry.snapshot()["metrics"]:
        for series in family["series"]:
            labels = ",".join(f"{k}={v}" for k, v in sorted(series["labels"].items()))
            flat[f"{family['name']}{{{labels}}}"] = (
                [series["count"], series["sum"]] if "count" in series
                else series["value"]
            )
    return flat


def execute(key: str):
    """Run ``GRID[key]``: its RunResult and Observability (None for ``obs=None``)."""
    runner, scenario_factory, ops, overrides = GRID[key]
    overrides = dict(overrides)
    obs = overrides.pop("obs", True) and Observability()
    sampler = overrides.pop("sampler", None)
    config = PipelineConfig(**{"seed": 7, **overrides}, obs=obs,
                            sampler=sampler() if sampler else None)
    if runner == "phoenix":
        scenario = scenario_factory(words_per_chunk=800, vocabulary_size=100)
        result = run_phoenix(scenario, ops, config)
    else:
        result = runner(scenario_factory(), ops, config)
    return result, obs


def stream_sha(result, obs) -> str:
    """sha256 over the run's telemetry stream in emission order: the trace
    events, the spans (``as_dict``), ``registry.snapshot()`` as exported
    (family and series order, help text) and the time series.  Only dict
    keys are sorted, so a change in what is emitted, or in which order,
    moves it."""
    stream = [
        [event.as_dict() for event in obs.tracer],
        [span.as_dict() for span in obs.spans],
        obs.registry.snapshot(),
        result.timeline.to_dict() if result.timeline is not None else None,
    ] if obs else []
    return hashlib.sha256(
        json.dumps(stream, sort_keys=True, default=str).encode()
    ).hexdigest()


@functools.cache
def grid_run(key: str) -> dict:
    """One run of ``GRID[key]`` per session: its golden record, its stream
    hash and the names it emitted (families, trace kinds, span stages)."""
    result, obs = execute(key)
    return {
        "golden": golden_record(result, obs),
        "stream": stream_sha(result, obs),
        "families": {f["name"] for f in obs.registry.snapshot()["metrics"]} if obs else set(),
        "kinds": {event.kind for event in obs.tracer} if obs else set(),
        "stages": {span.stage for span in obs.spans} if obs else set(),
    }


def golden_record(result, obs) -> dict:
    """Everything a run publishes, as ``driver_golden.json`` pins it."""
    metrics = result.metrics
    registry = _registry(obs) if obs else {}
    return {
        "digest": result.digest,
        "crashed": result.crashed,
        "operations": metrics.operations,
        "validated": metrics.validated,
        "skipped": metrics.skipped,
        "detections": result.detections,
        "duration": metrics.duration,
        "request_latencies": metrics.request_latency.count,
        "validation_latencies": metrics.validation_latency.count,
        "peak_live_bytes": metrics.peak_live_bytes,
        "peak_versioned_bytes": metrics.peak_versioned_bytes,
        "trace_events": len(obs.tracer) if obs else 0,
        "spans": len(obs.spans) if obs else 0,
        "registry_series": len(registry),
        "registry": hashlib.sha256(
            json.dumps(registry, sort_keys=True).encode()
        ).hexdigest()[:16],
        "timeline_samples": (
            result.timeline.samples_taken if result.timeline is not None else None
        ),
        "ledger": result.ft.ledger if result.ft is not None else None,
        "canary": result.canary,
    }
