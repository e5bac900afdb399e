"""One alarm per failure: the measured failure → alarm table (DESIGN §14.3).

Every chaos fault kind runs through the validation plane with every
alarm armed — ``canary.missed``, the two runtime drift probes and the
degradation ladder — and the table pins exactly which alarms fire and
the virtual time each first fires.  A new alarm that repeats one of
these, a kept alarm that goes quiet, or one that fires later than it
does today, all show up as a diff here.

Configuration: memcached, 400 ops, 2 app / 2 validation cores, a canary
every 50 µs, audit on; whenever validator faults are armed the plane
runs the ``FaultToleranceConfig()`` defaults.  Seeds 1 and 2 give the
same times.

A healthy run must stay silent on every app: an alarm that fires with
nothing wrong is noise that teaches operators to ignore it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faultinject.validator_faults import ValidatorChaosConfig
from repro.harness.pipeline import PipelineConfig, run_orthrus_server
from repro.harness.scenarios import (
    lsmtree_scenario,
    masstree_scenario,
    memcached_scenario,
)
from repro.obs import Observability, TimeSeriesConfig
from repro.obs.canary import CanaryConfig
from repro.runtime.degradation import FaultToleranceConfig

#: row -> (validator fault specs, PipelineConfig overrides,
#:         {alarm: first-fire virtual time in µs}).  Slowdown and overload
#: are regimes, not failures: the plane still detects, so nothing alarms.
ALARM_TABLE = {
    "hang 1 of 2": (
        ["hang=1"], {}, {"drift-validator-pool": 75, "drift-ledger-residual": 375},
    ),
    "hang all": (
        ["hang=2"], {}, {"drift-validator-pool": 75, "canary.missed": 225},
    ),
    "crash all": (
        ["crash=2"], {}, {"drift-validator-pool": 75, "canary.missed": 225},
    ),
    "verdict-loss all": (
        ["verdict-loss=2"], {},
        {"drift-validator-pool": 75, "drift-ledger-residual": 100,
         "canary.missed": 225, "ladder": 550},
    ),
    "healthy": ([], {}, {}),
    "slowdown all (8x)": (["slowdown=2"], {}, {}),
    "overload, 4 app / 1 validation core": (
        [], dict(app_threads=4, validation_cores=1), {},
    ),
}

#: trace events that are alarms (the audit rule names the drift alarm)
ALARM_EVENTS = ("audit.violation", "canary.missed", "degradation.transition")


def first_alarms(obs) -> dict[str, float]:
    """Alarm name -> virtual time it first fired, from one run's trace."""
    first: dict[str, float] = {}
    for event in obs.tracer:
        if event.kind == "audit.violation":
            name = event.fields["rule"]
        elif event.kind == "canary.missed":
            name = "canary.missed"
        elif event.kind == "degradation.transition":
            name = "ladder"
        else:
            continue
        first.setdefault(name, event.ts)
    return first


def run_row(row: str, seed: int) -> Observability:
    faults, overrides, _ = ALARM_TABLE[row]
    obs = Observability()
    if faults:
        overrides = dict(
            overrides,
            validator_faults=ValidatorChaosConfig.parse(faults, seed=seed),
            fault_tolerance=FaultToleranceConfig(),
        )
    config = PipelineConfig(
        **{"app_threads": 2, "validation_cores": 2, **overrides},
        seed=seed, obs=obs, canary=CanaryConfig(period=50e-6), audit=True,
    )
    result = run_orthrus_server(memcached_scenario(), 400, config)
    assert not result.crashed, result.crash_reason
    return obs


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("row", list(ALARM_TABLE))
def test_failure_raises_exactly_its_alarms(row, seed):
    observed = first_alarms(run_row(row, seed))
    expected = {name: us * 1e-6 for name, us in ALARM_TABLE[row][2].items()}
    assert observed == pytest.approx(expected, rel=0, abs=1e-12), {
        name: round(t * 1e6, 3) for name, t in observed.items()
    }


@settings(max_examples=12, deadline=None)
@given(
    scenario=st.sampled_from([memcached_scenario, masstree_scenario, lsmtree_scenario]),
    seed=st.integers(1, 10_000),
    n_ops=st.integers(20, 200),
)
def test_healthy_run_raises_no_alarm(scenario, seed, n_ops):
    """Every observer on, no validator fault: no alarm, and none of the
    deleted mechanisms' events either."""
    obs = Observability()
    config = PipelineConfig(
        seed=seed, obs=obs, timeseries=TimeSeriesConfig(),
        canary=CanaryConfig(period=50e-6), audit=True,
    )
    result = run_orthrus_server(scenario(), n_ops, config)
    assert not result.crashed, result.crash_reason
    fired = [
        (event.kind, event.fields)
        for event in obs.tracer
        if event.kind in ALARM_EVENTS + ("slo.breach", "anomaly.flag")
    ]
    assert fired == []
    assert result.canary["missed"] == 0
    assert result.audit["summary"]["ok"] is True
