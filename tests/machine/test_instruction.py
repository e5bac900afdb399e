"""Site and Trace record tests."""

from repro.machine.instruction import Site, Trace
from repro.machine.units import CYCLE_COST, Unit


class TestSite:
    def test_identity(self):
        assert Site("f", "add", 0) == Site("f", "add", 0)
        assert Site("f", "add", 0) != Site("f", "add", 1)
        assert Site("f", "add", 0) != Site("g", "add", 0)

    def test_hashable(self):
        assert len({Site("f", "add", 0), Site("f", "add", 0)}) == 1

    def test_str(self):
        assert str(Site("mc.set", "hash64", 2)) == "mc.set:hash64#2"


class TestTrace:
    def test_record_counts_and_cycles(self):
        trace = Trace()
        trace.record(Unit.ALU)
        trace.record(Unit.ALU)
        trace.record(Unit.FPU)
        assert trace.count(Unit.ALU) == 2
        assert trace.count(Unit.FPU) == 1
        assert trace.total_instructions == 3
        assert trace.cycles == 2 * CYCLE_COST[Unit.ALU] + CYCLE_COST[Unit.FPU]

    def test_sites_recorded_only_when_enabled(self):
        site = Site("f", "add", 0)
        silent = Trace()
        silent.record(Unit.ALU, site)
        assert silent.sites == set()
        loud = Trace(record_sites=True)
        loud.record(Unit.ALU, site)
        assert loud.sites == {site}

    def test_count_unknown_unit_zero(self):
        assert Trace().count(Unit.CACHE) == 0
