"""Golden results of the DES drivers over a grid of configurations.

``tests/fixtures/driver_golden.json`` was generated at the commit *before*
the drivers were folded into one session (``python
tests/harness/test_driver_golden.py --write`` regenerates it).  Each entry
pins everything a run publishes — digest, coverage counts, latency sample
counts, tracer length, span count, the full registry and the timeline
sample count — so a behaviour-preserving refactor of ``harness/`` shows an
empty diff here.  The benchmark pins (``benchmarks/perf/expected.json``)
cover four configurations; this grid covers the options they leave out.
The two ``lsmtree-compacting`` entries, and ``peak_live_bytes`` on every
lsmtree entry, were recorded at the commit before ``LsmTree`` began keeping
``disk_bytes`` as a running total (same ``_run``, that commit's ``src``).
The two ``validator-quarantine`` entries were recorded at the commit
before the plain and fault-tolerant planes became one validator loop
(same ``_run``, that commit's ``src``).

``PERMITTED`` lists, by config key, the only fields allowed to differ from
the fixture and why: the canary-deadline bug fix, the two places where
the validator loops had drifted apart and now share one decide step, the
plain plane's quarantined validator that kept validating, the one
``anomaly.flag`` trace event the deleted EWMA hooks emitted, and the
``drop`` marker every queue drop now ends its span chain with.  The two
``timeseries-slo`` keys keep their names so the fixture stays as
recorded; they now run the time-series recorder alone.
"""

import functools
import hashlib
import json
import pathlib
import sys

import pytest

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
from repro.response import ResponseConfig
from repro.runtime.degradation import FaultToleranceConfig
from repro.runtime.sampling import AlwaysSampler
from repro.validation.watchdog import WatchdogConfig

FIXTURE = pathlib.Path(__file__).parent.parent / "fixtures" / "driver_golden.json"

_SIMD_FAULT = (
    (0, Fault(unit=Unit.SIMD, kind=FaultKind.BITFLIP, bit=3,
              site=Site("mc.set", "vsum", 0))),
)
#: unscoped: only the re-executions on validation core 2 compute wrongly,
#: so the response layer quarantines core 2 early in the run
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
    "plain/response-fault": (run_orthrus_server, memcached_scenario, 200,
                             dict(response=ResponseConfig(),
                                  deferred_faults=_SIMD_FAULT)),
    "plain/deferred-fault": (run_orthrus_server, memcached_scenario, 200,
                             dict(deferred_faults=_SIMD_FAULT)),
    "plain/validator-quarantine": (run_orthrus_server, memcached_scenario, 400,
                                   dict(response=ResponseConfig(),
                                        deferred_faults=_VALIDATOR_FAULT)),
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
    "ft/response-fault": (run_orthrus_server, memcached_scenario, 200,
                          dict(fault_tolerance=_ft(), response=ResponseConfig(),
                               deferred_faults=_SIMD_FAULT)),
    "ft/validator-quarantine": (run_orthrus_server, memcached_scenario, 400,
                                dict(fault_tolerance=_ft(), response=ResponseConfig(),
                                     deferred_faults=_VALIDATOR_FAULT)),
    "ft/chaos-all-observers": (run_orthrus_server, memcached_scenario, 300,
                               dict(_CHAOS, sampler=AlwaysSampler, **_ALL_OBSERVERS)),
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

#: config key -> {field: why it may differ from the parent commit}.
#: Everything else is byte-identical.
_DECISION_EVENT = (
    "the fault-tolerant loop now emits the sampler.decision trace event the "
    "plain loop and pump() always emitted for the same transition"
)
_CANARY_SIGNAL = (
    "canaries bypass the sampler, so the shared decide step no longer adds "
    "their queueing delay to the sampler's load-signal histogram (only the "
    "fault-tolerant loop ever did)"
)
_CANARY_DEADLINE = (
    "canaries dequeued past the drain deadline no longer count as organic "
    "skips / validator drops (nor tick the reclaimer's batch counter)"
)
_QUARANTINED_VALIDATOR = (
    "a quarantined validation core now leaves the loop on the plain plane "
    "too, handing back the log it dequeued, instead of validating (and "
    "detecting) for the rest of the run"
)
_ANOMALY_FLAG = (
    _DECISION_EVENT + "; and one trace event fewer: the single anomaly.flag "
    "the EWMA anomaly hooks emitted here is gone with them (DESIGN §14.3)"
)
_QUEUE_DROP_MARKER = (
    "a log dropped from a bounded queue now ends its span chain in a "
    "zero-length drop marker (reason=), as a deadline drop always did: one "
    "span per queue drop, and the orthrus_span_stage_seconds{stage=drop} "
    "series those spans feed"
)
_PAST_DEADLINE = dict.fromkeys(
    ("skipped", "registry", "registry_series", "trace_events"), _CANARY_DEADLINE
)
#: recorded after the decide step was shared, so no decision-event allowance
_RECORDED_AFTER_SHARED_DECIDE = {"ft/validator-quarantine"}
PERMITTED = {
    **{
        key: {"trace_events": _DECISION_EVENT}
        for key, (_, _, _, overrides) in GRID.items()
        if key.startswith("ft/") and overrides.get("obs", True) is not None
        and key not in _RECORDED_AFTER_SHARED_DECIDE
    },
    "ft/canary": {"trace_events": _DECISION_EVENT, "registry": _CANARY_SIGNAL},
    "ft/chaos-all-observers": {
        "trace_events": _ANOMALY_FLAG, "registry": _CANARY_SIGNAL,
    },
    "ft/overload-ladder": {
        "trace_events": _ANOMALY_FLAG,
        "registry": _CANARY_SIGNAL + "; and " + _QUEUE_DROP_MARKER,
        "spans": _QUEUE_DROP_MARKER,
        "registry_series": _QUEUE_DROP_MARKER,
    },
    "plain/canary-past-deadline": _PAST_DEADLINE,
    "plain/validator-quarantine": dict.fromkeys(
        ("detections", "registry", "spans", "trace_events"), _QUARANTINED_VALIDATOR
    ),
    "ft/canary-past-deadline": _PAST_DEADLINE,
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


def _run(key: str) -> dict:
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


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_grid_matches_fixture_keys(golden):
    assert sorted(golden) == sorted(GRID)


@pytest.mark.parametrize("key", sorted(GRID))
def test_driver_matches_parent_commit(golden, key):
    expected = golden[key]
    observed = json.loads(json.dumps(_run(key)))
    moved = {f for f in expected if observed[f] != expected[f]}
    assert moved <= set(PERMITTED.get(key, ())), {
        f: (expected[f], observed[f]) for f in sorted(moved)
    }


def test_permitted_diffs_name_real_configs():
    assert set(PERMITTED) <= set(GRID)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/harness/test_driver_golden.py --write")
    FIXTURE.write_text(
        json.dumps({key: _run(key) for key in sorted(GRID)}, indent=1, sort_keys=True)
        + "\n"
    )
