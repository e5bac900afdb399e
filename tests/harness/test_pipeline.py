"""Timing-driver tests: vanilla/Orthrus/RBV over the server scenarios."""

import pytest

from repro.closures.log import ClosureLog
from repro.errors import HeapError
from repro.harness.pipeline import (
    DriverSession,
    PipelineConfig,
    run_orthrus_server,
    run_rbv_server,
    run_vanilla_server,
)
from repro.harness.scenarios import lsmtree_scenario, memcached_scenario
from repro.machine.faults import Fault, FaultKind
from repro.machine.instruction import Site
from repro.machine.units import Unit
from repro.runtime.sampling import AlwaysSampler
from repro.sim.metrics import slowdown

N_OPS = 400


@pytest.fixture(scope="module")
def runs():
    scenario = memcached_scenario(n_keys=60)
    return {
        "vanilla": run_vanilla_server(scenario, N_OPS, PipelineConfig(seed=1)),
        "orthrus": run_orthrus_server(scenario, N_OPS, PipelineConfig(seed=1)),
        "rbv": run_rbv_server(scenario, N_OPS, PipelineConfig(seed=1)),
    }


class TestFunctionalAgreement:
    def test_all_variants_complete_all_ops(self, runs):
        for result in runs.values():
            assert result.metrics.operations == N_OPS
            assert not result.crashed

    def test_all_variants_same_responses(self, runs):
        assert runs["vanilla"].responses == runs["orthrus"].responses
        assert runs["vanilla"].responses == runs["rbv"].responses

    def test_all_variants_same_final_state(self, runs):
        assert runs["vanilla"].digest == runs["orthrus"].digest == runs["rbv"].digest

    def test_clean_runs_have_no_detections(self, runs):
        assert runs["orthrus"].detections == 0
        assert runs["rbv"].rbv_detections == 0


class TestPerformanceShape:
    def test_orthrus_overhead_small(self, runs):
        overhead = slowdown(
            runs["vanilla"].metrics.throughput, runs["orthrus"].metrics.throughput
        )
        assert 0.0 < overhead < 0.10  # paper: 2-6%

    def test_rbv_much_slower(self, runs):
        overhead = slowdown(
            runs["vanilla"].metrics.throughput, runs["rbv"].metrics.throughput
        )
        assert overhead > 0.5  # paper: ~2x

    def test_orthrus_validation_latency_far_below_rbv(self, runs):
        orthrus_lat = runs["orthrus"].metrics.validation_latency.mean
        rbv_lat = runs["rbv"].metrics.validation_latency.mean
        assert orthrus_lat * 50 < rbv_lat  # 2-3 orders in the paper

    def test_rbv_tail_latency_worse(self, runs):
        assert (
            runs["rbv"].metrics.request_latency.p95
            > runs["orthrus"].metrics.request_latency.p95
        )

    def test_orthrus_memory_overhead_positive_and_bounded(self, runs):
        overhead = runs["orthrus"].metrics.memory_overhead
        assert 0.0 < overhead < 2.0


class TestOrthrusPipelineMechanics:
    def test_all_logs_validated_at_full_capacity(self):
        scenario = memcached_scenario(n_keys=40)
        config = PipelineConfig(seed=2, sampler=AlwaysSampler())
        result = run_orthrus_server(scenario, 200, config)
        assert result.metrics.validated == 200
        assert result.metrics.skipped == 0

    def test_fault_detected_in_pipeline(self):
        scenario = memcached_scenario(n_keys=40)
        config = PipelineConfig(seed=2)
        config.deferred_faults = (
            (0, Fault(unit=Unit.ALU, kind=FaultKind.BITFLIP, bit=3,
                      site=Site("mc.set", "hash64", 0))),
        )
        result = run_orthrus_server(scenario, 200, config)
        assert result.detections > 0

    def test_deferred_fault_spares_setup(self):
        # LSMTree preloads nothing, but Masstree-style setup must run on
        # healthy silicon; use lsmtree with a put-site fault to confirm the
        # run itself is affected while setup survives.
        scenario = lsmtree_scenario(n_keys=40)
        config = PipelineConfig(seed=2)
        config.deferred_faults = (
            (0, Fault(unit=Unit.FPU, kind=FaultKind.BITFLIP, bit=62)),
        )
        result = run_orthrus_server(scenario, 150, config)
        assert result.detections > 0 or result.crashed

    def test_safe_mode_increases_get_latency(self):
        scenario = memcached_scenario(n_keys=40)
        relaxed = run_orthrus_server(scenario, 300, PipelineConfig(seed=2))
        strict = run_orthrus_server(
            scenario, 300, PipelineConfig(seed=2, safe_mode=True)
        )
        assert (
            strict.metrics.request_latency.mean
            >= relaxed.metrics.request_latency.mean
        )
        assert strict.responses == relaxed.responses

    def test_constrained_cores_reduce_validated_fraction(self):
        scenario = memcached_scenario(n_keys=40)
        plenty = run_orthrus_server(
            scenario, 400, PipelineConfig(app_threads=4, validation_cores=4, seed=2)
        )
        scarce = run_orthrus_server(
            scenario, 400, PipelineConfig(app_threads=4, validation_cores=1, seed=2)
        )
        assert scarce.metrics.validated <= plenty.metrics.validated

    def test_memory_budget_trigger_activates_sampling(self):
        scenario = lsmtree_scenario(n_keys=60)
        tight = run_orthrus_server(
            scenario,
            300,
            PipelineConfig(seed=2, validation_cores=1, memory_budget_bytes=2000),
        )
        loose = run_orthrus_server(
            scenario,
            300,
            PipelineConfig(seed=2, validation_cores=1, memory_budget_bytes=1e9),
        )
        assert tight.metrics.skipped >= loose.metrics.skipped

    def test_memory_accounting_work_is_linear_in_operations(self, monkeypatch):
        # A count, not a timing: the per-request memory tracking must size
        # what the request wrote, never re-walk the SSTable buffer.  When
        # resident_bytes_extra() summed approx_size over tree.disk on every
        # request, 800 ops cost 5.2x the calls of 400; sizing each block
        # once as it is written costs 1.95x.
        import repro.memory.version as version

        real = version.approx_size

        def calls(n_ops: int) -> int:
            count = 0

            def counting(value):
                nonlocal count
                count += 1
                return real(value)

            # version.py's own recursion resolves this name per item, so
            # every element a walk touches is counted
            with monkeypatch.context() as patch:
                patch.setattr(version, "approx_size", counting)
                result = run_orthrus_server(
                    lsmtree_scenario(), n_ops, PipelineConfig(seed=5)
                )
            assert result.metrics.operations == n_ops
            return count

        n = 400  # past the first flush, so the buffer is not empty
        assert calls(2 * n) <= 2.5 * calls(n)

    def test_compare_cost_of_a_reclaimed_output_fails_loudly(self):
        # A version reclaimed before its log is dispatched is a
        # reclamation-safety bug; the cost model must not undercount it.
        session = DriverSession.open(memcached_scenario(n_keys=8), 4, PipelineConfig())
        heap = session.runtime.heap
        obj_id = heap.allocate(("k", "v"))
        stale = heap.latest(obj_id).version_id
        heap.store(obj_id, ("k", "w"))
        assert heap.reclaim_before(float("inf")) >= 1
        log = ClosureLog(seq=1, closure_name="mc.set", caller="test",
                         output_versions=[stale])
        with pytest.raises(HeapError):
            session.compare_cycles(log)


class TestRbvMechanics:
    def test_rbv_detects_control_path_fault(self):
        scenario = memcached_scenario(n_keys=40)
        config = PipelineConfig(seed=2)
        config.deferred_faults = (
            (0, Fault(unit=Unit.ALU, kind=FaultKind.BITFLIP, bit=0,
                      site=Site("mc.control.dispatch", "eq", 1))),
        )
        result = run_rbv_server(scenario, 200, config)
        assert result.rbv_detections > 0 or result.crashed

    def test_rbv_validation_counts(self, runs):
        assert runs["rbv"].metrics.validated == N_OPS
