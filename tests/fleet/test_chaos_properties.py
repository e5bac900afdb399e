"""Properties of generated fleet chaos (ROADMAP item 8).

For any ``FleetFaultPlan.generate(seed=…)`` on a small fleet, a run must
balance its conservation ledger, account for every re-homed log as
recovered or dropped, and produce the same digest and merged timeline
whether one worker or two simulate the host groups.  A plan the topology
cannot run (a partition on a one-host fleet, which has no link to cut) must
be refused when it is generated, never half-run.

Tier-1 draws a dozen small fleets; ``-m slow`` sweeps a wider grid.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FaultInjectionError
from repro.faultinject.fleet_faults import FleetFaultPlan
from repro.fleet import FleetConfig, run_fleet


@st.composite
def chaos_configs(draw):
    """(FleetConfig keywords, FleetFaultPlan.generate keywords)."""
    hosts = draw(st.integers(1, 8))
    epochs = draw(st.integers(4, 16))
    seed = draw(st.integers(0, 2**31))
    fleet = dict(
        hosts=hosts,
        shards=hosts * draw(st.integers(1, 2)),
        scale=draw(st.sampled_from([0.01, 0.03, 0.05])),
        epochs=epochs,
        ground_shards=0,
        load_factor=draw(st.sampled_from([1.0, 6.0, 12.0])),
        min_coverage=draw(st.sampled_from([0.05, 0.6])),
        queue_capacity=256,
        seed=seed,
    )
    plan = dict(
        hosts=hosts, epochs=epochs,
        crashes=draw(st.integers(0, 3)),
        partitions=draw(st.integers(0, 2)),
        seed=seed,
    )
    return fleet, plan


def check_generated_chaos(drawn) -> None:
    fleet, plan = drawn
    if plan["hosts"] == 1 and plan["partitions"]:
        with pytest.raises(FaultInjectionError, match="partitions need hosts >= 2"):
            FleetFaultPlan.generate(**plan)
        return
    config = FleetConfig(**fleet, faults=FleetFaultPlan.generate(**plan))
    w1 = run_fleet(config, workers=1)
    w2 = run_fleet(config, workers=2)
    assert w1.rollup["conservation"]["balanced"], w1.rollup["conservation"]
    failover = w1.rollup["failover"]
    assert failover["re_homed"] == failover["recovered"] + failover["dropped"], failover
    assert w1.digest == w2.digest
    timeline = json.dumps(w1.timeline.to_dict(), sort_keys=True)
    assert timeline == json.dumps(w2.timeline.to_dict(), sort_keys=True)


@settings(max_examples=12, deadline=None)
@given(chaos_configs())
def test_generated_chaos_balances_and_is_worker_invariant(config):
    check_generated_chaos(config)


@pytest.mark.slow
@settings(max_examples=150, deadline=None)
@given(chaos_configs())
def test_generated_chaos_wide_grid(config):
    check_generated_chaos(config)
