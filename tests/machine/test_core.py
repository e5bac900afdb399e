"""Core execution, tracing, and mercurial behaviour."""

import pytest

from repro.machine.core import AtomicCell, Core
from repro.machine.faults import Fault, FaultKind
from repro.machine.instruction import Site, Trace
from repro.machine.units import Unit


@pytest.fixture
def core():
    return Core(core_id=0)


class TestHealthyOps:
    def test_alu_arithmetic(self, core):
        core.begin("f")
        assert core.alu.add(2, 3) == 5
        assert core.alu.sub(7, 3) == 4
        assert core.alu.mul(4, 5) == 20
        assert core.alu.div(17, 5) == 3
        assert core.alu.mod(17, 5) == 2
        core.end()

    def test_alu_logic(self, core):
        core.begin("f")
        assert core.alu.xor(0b1100, 0b1010) == 0b0110
        assert core.alu.and_(0b1100, 0b1010) == 0b1000
        assert core.alu.or_(0b1100, 0b1010) == 0b1110
        assert core.alu.shl(1, 4) == 16
        assert core.alu.shr(16, 2) == 4
        core.end()

    def test_alu_compare(self, core):
        core.begin("f")
        assert core.alu.lt(1, 2) is True
        assert core.alu.lt(2, 1) is False
        assert core.alu.le(2, 2) is True
        assert core.alu.eq("a", "a") is True
        core.end()

    def test_fpu(self, core):
        core.begin("f")
        assert core.fpu.fadd(1.5, 2.5) == 4.0
        assert core.fpu.fmul(3.0, 2.0) == 6.0
        assert core.fpu.fdiv(1.0, 4.0) == 0.25
        core.end()

    def test_simd(self, core):
        core.begin("f")
        assert core.simd.vadd((1, 2), (3, 4)) == (4, 6)
        assert core.simd.vmul((2, 3), (4, 5)) == (8, 15)
        assert core.simd.vdot((1, 2), (3, 4)) == 11.0
        assert core.simd.vsum((1, 2, 3)) == 6.0
        core.end()

    def test_cache_atomics(self, core):
        cell = AtomicCell(10)
        core.begin("f")
        assert core.cache.atomic_read(cell) == 10
        core.cache.atomic_write(cell, 20)
        assert cell.value == 20
        assert core.cache.atomic_add(cell, 5) == 25
        assert core.cache.cas(cell, 25, 30) is True
        assert cell.value == 30
        assert core.cache.cas(cell, 999, 0) is False
        assert cell.value == 30
        core.end()

    def test_hash64_deterministic_and_spread(self, core):
        core.begin("f")
        h1 = core.alu.hash64("key-1")
        core.end()
        core.begin("f")
        h2 = core.alu.hash64("key-1")
        h3 = core.alu.hash64("key-2")
        core.end()
        assert h1 == h2
        assert h1 != h3
        assert 0 <= h1 < 2**64

    def test_copy_is_identity_when_healthy(self, core):
        core.begin("f")
        assert core.alu.copy(b"payload") == b"payload"
        core.end()

    def test_division_by_zero_raises(self, core):
        core.begin("f")
        with pytest.raises(ZeroDivisionError):
            core.alu.div(1, 0)
        core.end()


class TestTracing:
    def test_trace_counts_units(self, core):
        trace = core.begin("f", Trace())
        core.alu.add(1, 2)
        core.alu.add(3, 4)
        core.fpu.fadd(1.0, 2.0)
        core.simd.vadd((1,), (2,))
        core.end()
        assert trace.count(Unit.ALU) == 2
        assert trace.count(Unit.FPU) == 1
        assert trace.count(Unit.SIMD) == 1
        assert trace.count(Unit.CACHE) == 0

    def test_trace_cycles_accumulate(self, core):
        trace = core.begin("f", Trace())
        core.alu.add(1, 2)
        core.fpu.fadd(1.0, 2.0)
        core.end()
        assert trace.cycles == 1 + 4

    def test_site_recording(self, core):
        from repro.machine.instruction import Trace

        trace = core.begin("f", Trace(record_sites=True))
        core.alu.add(1, 2)
        core.alu.add(3, 4)
        core.alu.mul(2, 2)
        core.end()
        assert Site("f", "add", 0) in trace.sites
        assert Site("f", "add", 1) in trace.sites
        assert Site("f", "mul", 0) in trace.sites

    def test_occurrence_counters_reset_per_execution(self, core):
        from repro.machine.instruction import Trace

        trace1 = core.begin("f", Trace(record_sites=True))
        core.alu.add(1, 2)
        core.end()
        trace2 = core.begin("f", Trace(record_sites=True))
        core.alu.add(1, 2)
        core.end()
        assert trace1.sites == trace2.sites

    def test_a_scope_without_a_trace_builds_none(self, core):
        """A control-path scope counts on the core alone; nesting still
        marks a suspended trace."""
        outer = core.begin("closure", Trace())
        with core.scope("control") as scope:
            core.alu.add(1, 2)
        assert scope.trace is None and core.begin("g") is None and core.end() is None
        assert core.end() is outer
        assert outer.nested and outer.total_instructions == 0
        assert core.instructions == 1 and core.total_cycles == 1

    def test_total_cycles_accumulate_across_executions(self, core):
        core.begin("f")
        core.alu.add(1, 2)
        core.end()
        before = core.total_cycles
        core.begin("g")
        core.alu.add(1, 2)
        core.end()
        assert core.total_cycles == before + 1


class TestMercurialBehaviour:
    def test_sitewide_fault_corrupts_every_matching_op(self):
        core = Core(0)
        core.arm(Fault(unit=Unit.ALU, kind=FaultKind.BITFLIP, bit=0))
        core.begin("f")
        assert core.alu.add(2, 2) == 5  # 4 ^ 1
        core.end()

    def test_fault_is_reproducible(self):
        core = Core(0)
        core.arm(Fault(unit=Unit.ALU, kind=FaultKind.BITFLIP, bit=2))
        results = set()
        for _ in range(5):
            core.begin("f")
            results.add(core.alu.add(10, 10))
            core.end()
        assert results == {20 ^ 4}  # every execution corrupted identically

    def test_site_pinned_fault_hits_only_that_occurrence(self):
        core = Core(0)
        site = Site("f", "add", 1)
        core.arm(Fault(unit=Unit.ALU, kind=FaultKind.BITFLIP, site=site, bit=0))
        core.begin("f")
        first = core.alu.add(4, 4)
        second = core.alu.add(4, 4)
        core.end()
        assert first == 8
        assert second == 9

    def test_fault_in_other_unit_does_not_fire(self):
        core = Core(0)
        core.arm(Fault(unit=Unit.FPU, kind=FaultKind.BITFLIP, bit=0))
        core.begin("f")
        assert core.alu.add(2, 2) == 4
        core.end()

    def test_nop_returns_first_operand(self):
        core = Core(0)
        core.arm(Fault(unit=Unit.ALU, kind=FaultKind.NOP))
        core.begin("f")
        assert core.alu.add(7, 3) == 7
        core.end()

    def test_trigger_rate_zero_never_fires(self):
        core = Core(0, seed=42)
        core.arm(Fault(unit=Unit.ALU, kind=FaultKind.BITFLIP, bit=0, trigger_rate=0.0))
        core.begin("f")
        assert all(core.alu.add(2, 2) == 4 for _ in range(20))
        core.end()

    def test_trigger_rate_partial_fires_sometimes(self):
        core = Core(0, seed=7)
        core.arm(Fault(unit=Unit.ALU, kind=FaultKind.BITFLIP, bit=0, trigger_rate=0.5))
        core.begin("f")
        results = [core.alu.add(2, 2) for _ in range(100)]
        core.end()
        assert 4 in results and 5 in results

    def test_disarm_restores_health(self):
        core = Core(0)
        core.arm(Fault(unit=Unit.ALU, kind=FaultKind.BITFLIP, bit=0))
        core.disarm()
        assert not core.is_mercurial
        core.begin("f")
        assert core.alu.add(2, 2) == 4
        core.end()

    def test_branch_condition_corruption(self):
        core = Core(0)
        core.arm(Fault(unit=Unit.ALU, kind=FaultKind.BITFLIP, bit=0))
        core.begin("f")
        assert core.alu.lt(1, 2) is False  # inverted by the fault
        core.end()

    def test_cache_fault_corrupts_atomics(self):
        core = Core(0)
        core.arm(Fault(unit=Unit.CACHE, kind=FaultKind.BITFLIP, bit=0))
        cell = AtomicCell(4)
        core.begin("f")
        assert core.cache.atomic_read(cell) == 5
        core.end()


def _operator_sequence(core: Core) -> tuple[list, Trace]:
    """A fixed mix over all four units, with repeats of each opcode and a
    nested scope, so occurrence indices, weights and frames all matter.
    Returns the results and the nested scope's own trace."""
    cell = AtomicCell(3)
    out = []
    out.append(core.alu.add(2, 3))
    out.append(core.alu.add(out[-1], 4))
    out.append(core.alu.hash64("a-key-longer-than-eight-bytes"))
    out.append(core.fpu.fmul(1.5, 2.0))
    with core.scope("inner", Trace()) as inner:
        out.append(core.alu.add(1, 1))
        out.append(core.simd.vsum(range(20)))
    out.append(core.fpu.fmul(out[3], 0.5))
    out.append(core.cache.atomic_add(cell, 2))
    out.append(core.cache.load_shared(("node", 1)))
    out.append(core.alu.lt(1, 2))
    out.append(core.alu.copy(b"x" * 200))
    return out, inner.trace


class TestSiteBuiltOnlyWhenObserved:
    """``_issue`` skips the Site when nothing can observe it; everything a
    run publishes must be the same as on a core that always builds one."""

    @staticmethod
    def _run(record_core: bool, record_trace: bool):
        core = Core(0)
        core.record_sites = record_core
        trace = core.begin("f", Trace(record_sites=record_trace))
        results, inner = _operator_sequence(core)
        assert core.end() is trace
        return core, (trace, inner), results

    @pytest.mark.parametrize("record_core, record_trace",
                             [(True, False), (False, True), (True, True)])
    def test_recording_changes_nothing_but_the_records(self, record_core, record_trace):
        lazy_core, lazy_traces, lazy_results = self._run(False, False)
        core, traces, results = self._run(record_core, record_trace)
        assert results == lazy_results
        assert core.total_cycles == lazy_core.total_cycles
        assert core.instructions == lazy_core.instructions == len(results)
        for traced, lazy in zip(traces, lazy_traces):
            assert traced.unit_counts == lazy.unit_counts
            assert traced.cycles == lazy.cycles
        trace, lazy_trace = traces[0], lazy_traces[0]
        # ... and the lazy run really recorded nothing, the other really did
        assert lazy_core.site_counts == {} and lazy_trace.sites == set()
        recorded = set(core.site_counts) if record_core else trace.sites
        assert Site("f", "add", 1) in recorded and Site("f", "fmul", 1) in recorded
        assert (Site("inner", "add", 0) in recorded) == record_core  # inner scope: own trace
        if record_core:
            assert sum(core.site_counts.values()) == len(results)

    def test_fault_armed_after_lazy_issues_hits_the_right_occurrence(self):
        core = Core(0)
        core.begin("fn")
        healthy = [core.alu.add(10, 0) for _ in range(3)]  # no Site built
        core.arm(Fault(unit=Unit.ALU, kind=FaultKind.BITFLIP, bit=0,
                       site=Site("fn", "add", 3)))
        armed = [core.alu.add(10, 0) for _ in range(3)]
        core.end()
        assert healthy == [10, 10, 10]
        assert armed == [11, 10, 10]  # exactly the fourth add of the scope

    def test_recording_switched_on_mid_scope_continues_the_indices(self):
        core = Core(0)
        core.begin("fn")
        core.alu.add(1, 1)
        core.alu.add(1, 1)
        core.record_sites = True
        core.alu.add(1, 1)
        core.end()
        assert core.site_counts == {Site("fn", "add", 2): 1}
        assert core.site_units == {Site("fn", "add", 2): Unit.ALU}
