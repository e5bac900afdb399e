"""Fleet infrastructure chaos: fault plans, the failover compiler, and
end-to-end chaos runs (conservation, determinism, recovery semantics)."""

import pickle

import pytest

from repro.errors import FaultInjectionError
from repro.faultinject.fleet_faults import (
    FleetFaultPlan,
    HostCrash,
    LinkDegradation,
    LinkPartition,
    StragglerWindow,
)
from repro.fleet.chaos import (
    compile_fleet_chaos,
    failover_drain_schedule,
    remap_fractions,
)
from repro.fleet.runner import plan_fleet, run_fleet
from repro.fleet.topology import FleetConfig, FleetConfigError, FleetTopology


def _chaos_config(**overrides):
    """A loaded small fleet where queues actually carry backlog, so a
    crash re-homes real work."""
    defaults = dict(
        hosts=4, shards=8, scale=0.05, epochs=48, ground_shards=0,
        load_factor=6.0, min_coverage=0.6, queue_capacity=256,
        quarantined=((0, 5), (1, 13)),
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


class TestFaultPlanSpecs:
    def test_crash_parse(self):
        assert HostCrash.parse("3@12+8") == HostCrash(3, 12, 8)
        assert HostCrash.parse("3@12") == HostCrash(3, 12, None)

    def test_partition_parse(self):
        assert LinkPartition.parse("0-1@10+16") == LinkPartition(0, 1, 10, 16)

    def test_degradation_parse_with_factor(self):
        d = LinkDegradation.parse("2-3@4+6:8.0")
        assert (d.host_a, d.host_b, d.factor) == (2, 3, 8.0)

    def test_straggler_parse(self):
        s = StragglerWindow.parse("1,2@8+4:0.25")
        assert s.hosts == (1, 2) and s.factor == 0.25

    @pytest.mark.parametrize("bad", ["x@1", "1@", "1-2@", "@5"])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(FaultInjectionError):
            HostCrash.parse(bad)

    def test_plan_roundtrips_through_dict(self):
        plan = FleetFaultPlan.parse(
            crashes=("1@6+8", "2@20"),
            partitions=("0-1@8+10",),
            degradations=("2-3@4+6:8.0",),
            stragglers=("1,2@8+4:0.25",),
        )
        assert FleetFaultPlan.from_dict(plan.to_dict()) == plan

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(FaultInjectionError):
            FleetFaultPlan.from_dict({"crashs": []})

    def test_schedule_queries(self):
        plan = FleetFaultPlan.parse(
            crashes=("1@6+8",), partitions=("0-1@8+10",)
        )
        assert plan.down_hosts_at(6) == {1}
        assert plan.down_hosts_at(13) == {1}
        assert plan.down_hosts_at(14) == set()
        assert plan.link_partitioned(0, 1, 8)
        assert plan.link_partitioned(1, 0, 17)
        assert not plan.link_partitioned(0, 1, 18)


class TestGeneratedPlans:
    def test_same_seed_same_plan(self):
        a = FleetFaultPlan.generate(8, 48, crashes=2, partitions=1, seed=7)
        b = FleetFaultPlan.generate(8, 48, crashes=2, partitions=1, seed=7)
        assert a == b and a.digest() == b.digest()

    def test_different_seed_different_plan(self):
        a = FleetFaultPlan.generate(8, 48, crashes=2, partitions=1, seed=7)
        b = FleetFaultPlan.generate(8, 48, crashes=2, partitions=1, seed=8)
        assert a.digest() != b.digest()

    def test_victims_are_distinct_and_never_the_whole_fleet(self):
        plan = FleetFaultPlan.generate(4, 48, crashes=10, seed=3)
        victims = [c.host for c in plan.crashes]
        assert len(victims) == len(set(victims)) <= 3

    def test_partitions_cut_spill_links(self):
        plan = FleetFaultPlan.generate(8, 48, partitions=3, seed=5)
        for p in plan.partitions:
            assert p.host_b == (p.host_a + 1) % 8

    def test_merge_concatenates(self):
        a = FleetFaultPlan.parse(crashes=("1@6",))
        b = FleetFaultPlan.generate(8, 48, partitions=1, seed=2)
        merged = a.merge(b)
        assert merged.crashes == a.crashes
        assert merged.partitions == b.partitions


class TestDrainSchedule:
    def test_capped_exponential_backoff(self):
        assert failover_drain_schedule(10, 96, 4, 1) == (11, 13, 17, 25)

    def test_cap_at_eight_times_base(self):
        schedule = failover_drain_schedule(0, 500, 8, 1)
        gaps = [b - a for a, b in zip(schedule, schedule[1:])]
        assert max(gaps) == 8

    def test_clipped_to_horizon(self):
        assert failover_drain_schedule(44, 48, 4, 1) == (45, 47)

    def test_zero_budget_empty(self):
        assert failover_drain_schedule(10, 96, 0, 1) == ()


class TestCompiler:
    def test_manifests_are_picklable_pure_data(self):
        config = _chaos_config(
            faults=FleetFaultPlan.parse(crashes=("1@12+10",))
        )
        topology = FleetTopology(config)
        manifests = compile_fleet_chaos(config, topology, plan_fleet(topology))
        assert manifests
        pickle.loads(pickle.dumps(manifests))

    def test_inherited_ops_conserve_diverted_arrivals(self):
        from repro.fleet.shardsim import _arrivals

        config = _chaos_config(
            faults=FleetFaultPlan.parse(crashes=("1@12+10", "2@24"))
        )
        topology = FleetTopology(config)
        plans = plan_fleet(topology)
        manifests = {p.shard_id: p.chaos for p in plans if p.chaos}
        arrivals = {p.shard_id: _arrivals(p, config) for p in plans}
        diverted = sum(
            arrivals[sid][e]
            for sid, m in manifests.items()
            for e in m.diverted_epochs
        )
        inherited = sum(
            sum(m.inherited_ops) for m in manifests.values()
        )
        assert diverted > 0
        assert inherited == diverted

    def test_recipients_exclude_dead_shards(self):
        config = _chaos_config(
            faults=FleetFaultPlan.parse(crashes=("1@12+10",))
        )
        topology = FleetTopology(config)
        manifests = compile_fleet_chaos(config, topology, plan_fleet(topology))
        dead = {s.name for s in topology.shards if s.host_id == 1}
        for shard_id, manifest in manifests.items():
            for window in manifest.crashes:
                names = {name for name, _ in window.recipients}
                assert not names & dead

    def test_partition_reroutes_spill_around_dead_link(self):
        config = _chaos_config(
            faults=FleetFaultPlan.parse(partitions=("0-1@10+16",))
        )
        topology = FleetTopology(config)
        manifests = compile_fleet_chaos(config, topology, plan_fleet(topology))
        # host 0's shards spill to peer 1 by default; during the window
        # the route must avoid host 1 but still find a live host
        routed = [
            m for sid, m in manifests.items()
            if topology.shards[sid].host_id == 0 and m.spill_route
        ]
        assert routed
        for manifest in routed:
            for epoch in range(10, 26):
                assert manifest.spill_route[epoch] not in (1, -1)
            assert manifest.spill_route[9] == 1
            assert manifest.spill_route[26] == 1


class TestChaosRuns:
    @pytest.fixture(scope="class")
    def reports(self):
        config = _chaos_config(faults=FleetFaultPlan.parse(
            crashes=("1@12+10", "2@24"), partitions=("0-1@10+20",),
        ))
        return run_fleet(config, workers=1), run_fleet(config, workers=4)

    def test_digest_identical_across_worker_counts(self, reports):
        w1, w4 = reports
        assert w1.digest == w4.digest

    def test_conservation_balances_with_failover_buckets(self, reports):
        w1, _ = reports
        conservation = w1.rollup["conservation"]
        assert conservation["balanced"]
        assert conservation["re_homed_split_ok"]
        assert not conservation["missing_shards"]

    def test_backlog_is_re_homed_and_recovered(self, reports):
        w1, _ = reports
        failover = w1.rollup["failover"]
        assert failover["hosts_crashed"] == 2
        assert failover["failovers"] >= 2
        assert failover["re_homed"] > 0
        assert (
            failover["re_homed"]
            == failover["recovered"] + failover["dropped"]
        )

    def test_failover_lag_and_exposure_metered(self, reports):
        w1, _ = reports
        failover = w1.rollup["failover"]
        assert failover["lag"]["count"] == failover["recovered"]
        assert failover["lag"]["p95"] > 0
        assert failover["exposure"]["logs"] == failover["recovered"]
        by_reason = w1.rollup["exposure"]["by_reason"]
        assert by_reason["failover"]["logs"] > 0

    def test_chaos_events_flow_through_the_stream(self, reports):
        w1, _ = reports
        kinds = {e["kind"] for e in w1.events}
        assert {
            "fleet.host_down", "fleet.failover", "fleet.redispatch",
            "fleet.host_up", "fleet.readmit", "fleet.inherit",
        } <= kinds

    def test_readmitted_host_resumes_arrivals(self, reports):
        w1, _ = reports
        crashed = [s for s in w1.shards if s["host"] == "h001"]
        assert crashed
        for shard in crashed:
            # host 1 restarts at epoch 22, re-admits at 26: its shards
            # divert part of the run but carry demand before and after
            assert shard["diverted"] > 0
            assert shard["ops"] > 0

    def test_artifact_reports_failover_block(self, reports):
        w1, _ = reports
        payload = w1.to_json()
        assert payload["failover"]["hosts_crashed"] == 2
        assert "p95" in payload["failover"]["lag"]
        assert payload["conservation"]["balanced"]

    def test_render_mentions_failover_and_conservation(self, reports):
        w1, _ = reports
        text = w1.render()
        assert "failover        :" in text
        assert "conservation    : balanced" in text

    def test_healthy_run_reports_zero_failover(self):
        report = run_fleet(_chaos_config(), workers=1)
        failover = report.rollup["failover"]
        assert failover["re_homed"] == failover["recovered"] == 0
        assert report.rollup["conservation"]["balanced"]


class TestPermanentCrashAndBudget:
    def test_exhausted_budget_drops_with_reason(self):
        # one validator per shard shrinks the recovery pool below the
        # re-homed backlog, so a one-attempt budget cannot drain it
        config = _chaos_config(
            faults=FleetFaultPlan.parse(crashes=("1@12+10", "2@24")),
            validators_per_shard=1,
            failover_retry_budget=1,
        )
        report = run_fleet(config, workers=1)
        failover = report.rollup["failover"]
        assert failover["re_homed"] > 0
        assert failover["dropped"] > 0
        assert (
            failover["re_homed"]
            == failover["recovered"] + failover["dropped"]
        )
        assert report.rollup["conservation"]["balanced"]
        kinds = {e["kind"] for e in report.events}
        assert "fleet.failover.drop" in kinds
        # host 2 dies at epoch 24 with no restart: it must never come back
        assert not any(
            e["kind"] in ("fleet.host_up", "fleet.readmit")
            and e["host"] == "h002"
            for e in report.events
        )

    def test_straggler_window_emits_and_stays_deterministic(self):
        config = _chaos_config(
            faults=FleetFaultPlan.parse(stragglers=("2@12+8:0.5",))
        )
        a = run_fleet(config, workers=1)
        b = run_fleet(config, workers=2)
        assert a.digest == b.digest
        assert any(e["kind"] == "fleet.straggle" for e in a.events)


class TestChaosAuditRules:
    def test_zero_retry_budget_with_crashes_rejected(self):
        with pytest.raises(FleetConfigError) as excinfo:
            FleetTopology(_chaos_config(
                faults=FleetFaultPlan.parse(crashes=("1@6",)),
                failover_retry_budget=0,
            ))
        assert any(
            v["code"] == "failover-retry-budget-zero"
            for v in excinfo.value.violations
        )

    def test_partition_naming_unknown_hosts_rejected(self):
        with pytest.raises(FleetConfigError) as excinfo:
            FleetTopology(_chaos_config(
                faults=FleetFaultPlan.parse(partitions=("0-9@5+4",))
            ))
        assert any(
            v["code"] == "chaos-unknown-host"
            for v in excinfo.value.violations
        )

    def test_crash_beyond_horizon_rejected(self):
        with pytest.raises(FleetConfigError) as excinfo:
            FleetTopology(_chaos_config(
                faults=FleetFaultPlan.parse(crashes=("1@500",))
            ))
        assert any(
            v["code"] == "crash-window-exceeds-horizon"
            for v in excinfo.value.violations
        )

    def test_total_outage_rejected(self):
        crashes = tuple(f"{h}@6" for h in range(4))
        with pytest.raises(FleetConfigError) as excinfo:
            FleetTopology(_chaos_config(
                faults=FleetFaultPlan.parse(crashes=crashes)
            ))
        assert any(
            v["code"] == "chaos-total-outage"
            for v in excinfo.value.violations
        )

    def test_valid_plan_accepted(self):
        FleetTopology(_chaos_config(
            faults=FleetFaultPlan.parse(
                crashes=("1@12+10",), partitions=("0-1@10+16",)
            )
        ))


class TestFleet128Acceptance:
    """The issue's acceptance gate: a seeded plan with >=2 crashes and
    >=1 partition completes with zero lost logs and byte-identical digests
    at workers=1 and workers=4.  Tier-1 runs it on 16 hosts / 32 shards;
    the full 128-host / 256-shard fleet is ``pytest -m slow`` (CI)."""

    @staticmethod
    def _seeded_chaos(hosts: int):
        plan = FleetFaultPlan.generate(
            hosts=hosts, epochs=32, crashes=3, partitions=2, seed=11
        )
        assert len(plan.crashes) >= 2
        assert len(plan.partitions) >= 1
        config = FleetConfig(
            hosts=hosts, shards=2 * hosts, scale=0.02, epochs=32, ground_shards=0,
            load_factor=4.0, min_coverage=0.5, faults=plan,
        )
        w1 = run_fleet(config, workers=1)
        w4 = run_fleet(config, workers=4)
        assert w1.digest == w4.digest
        conservation = w1.rollup["conservation"]
        assert conservation["balanced"]
        assert conservation["re_homed_split_ok"]
        failover = w1.rollup["failover"]
        assert failover["hosts_crashed"] >= 2
        assert failover["failovers"] >= 2
        payload = w1.to_json()
        assert "p95" in payload["failover"]["lag"]
        assert "logs" in payload["failover"]["exposure"]

    def test_seeded_chaos_on_16_hosts(self):
        self._seeded_chaos(16)

    @pytest.mark.slow
    def test_seeded_chaos_on_128_hosts(self):
        self._seeded_chaos(128)
