"""Masstree application tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.masstree import MasstreeServer, mt_get, mt_scan, mt_update
from repro.machine.cpu import Machine
from repro.machine.faults import Fault, FaultKind
from repro.machine.units import Unit
from repro.runtime.orthrus import OrthrusRuntime
from repro.workloads.alex import AlexWorkload
from repro.workloads.base import Op, OpKind

from tests.apps.conftest import make_faulty_runtime


def update_op(key, value):
    return Op(OpKind.UPDATE, key, value)


def scan_op(key, count):
    return Op(OpKind.SCAN, key, count=count)


class TestFunctional:
    def test_insert_and_get(self, runtime):
        server = MasstreeServer(runtime, order=4)
        with runtime:
            server.handle(update_op(10, 100))
            assert mt_get(server.tree, 10) == 100
            assert mt_get(server.tree, 11) is None

    def test_update_in_place(self, runtime):
        server = MasstreeServer(runtime, order=4)
        with runtime:
            server.handle(update_op(10, 100))
            server.handle(update_op(10, 200))
            assert mt_get(server.tree, 10) == 200
        assert server.items() == [(10, 200)]

    def test_splits_keep_order(self, runtime):
        server = MasstreeServer(runtime, order=4)
        keys = [37, 12, 99, 5, 61, 44, 70, 2, 88, 23, 51, 8]
        with runtime:
            for key in keys:
                server.handle(update_op(key, key * 10))
        assert server.items() == sorted((k, k * 10) for k in keys)

    def test_root_grows_multiple_levels(self, runtime):
        server = MasstreeServer(runtime, order=4)
        with runtime:
            for key in range(64):
                server.handle(update_op(key, key))
        assert server.items() == [(k, k) for k in range(64)]

    def test_scan_returns_sorted_window(self, runtime):
        server = MasstreeServer(runtime, order=4)
        with runtime:
            for key in range(0, 40, 2):
                server.handle(update_op(key, key + 1))
            results = server.handle(scan_op(10, 5))
        assert results == ((10, 11), (12, 13), (14, 15), (16, 17), (18, 19))

    def test_scan_across_leaf_boundaries(self, runtime):
        server = MasstreeServer(runtime, order=4)
        with runtime:
            for key in range(30):
                server.handle(update_op(key, key))
            results = mt_scan(server.tree, 0, 30)
        assert [k for k, _ in results] == list(range(30))

    def test_scan_beyond_end(self, runtime):
        server = MasstreeServer(runtime, order=4)
        with runtime:
            server.handle(update_op(1, 1))
            results = mt_scan(server.tree, 100, 5)
        assert results == ()

    def test_load_keys_preloads(self, runtime):
        server = MasstreeServer(runtime, order=8)
        workload = AlexWorkload(n_keys=50, seed=3)
        with runtime:
            server.load_keys(workload.initial_keys())
        assert len(server.items()) == 50

    def test_clean_workload_run(self, runtime):
        server = MasstreeServer(runtime, order=8)
        workload = AlexWorkload(n_keys=60, seed=3)
        with runtime:
            server.load_keys(workload.initial_keys())
            for op in workload.ops(150):
                server.handle(op)
        assert runtime.detections == 0
        items = server.items()
        assert items == sorted(items)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 200), st.integers(0, 10**6)), min_size=1, max_size=60))
def test_masstree_matches_sorted_dict_model(pairs):
    machine = Machine(cores_per_node=4, numa_nodes=1)
    runtime = OrthrusRuntime(machine=machine, app_cores=[0], validation_cores=[1])
    server = MasstreeServer(runtime, order=4)
    model = {}
    with runtime:
        for key, value in pairs:
            mt_update(server.tree, runtime.new((key, value)))
            model[key] = value
    assert server.items() == sorted(model.items())
    assert runtime.detections == 0


class TestFaultBehaviour:
    def test_simd_descent_fault_detected(self):
        # A sign-bit lane defect flips the in-node vectorized compare and
        # sends descents down the wrong child; lower-bit defects are
        # usually masked because only the sign of the diff is consumed.
        runtime = make_faulty_runtime(
            Fault(unit=Unit.SIMD, kind=FaultKind.BITFLIP, bit=63)
        )
        server = MasstreeServer(runtime, order=4)
        detected = 0
        with runtime:
            try:
                for key in range(60):
                    server.handle(update_op(key, key))
            except Exception:
                pass
            detected = runtime.detections
        assert detected > 0

    def test_low_bit_simd_fault_usually_masked(self):
        runtime = make_faulty_runtime(
            Fault(unit=Unit.SIMD, kind=FaultKind.BITFLIP, bit=2)
        )
        server = MasstreeServer(runtime, order=4)
        with runtime:
            for key in range(40):
                server.handle(update_op(key, key))
        # Only the sign of the vectorized compare is consumed: a low-bit
        # defect rarely crosses zero, so it is a masked error (§2.1).
        assert runtime.detections == 0
        assert server.items() == [(k, k) for k in range(40)]

    def test_cache_fault_detected(self):
        runtime = make_faulty_runtime(
            Fault(unit=Unit.CACHE, kind=FaultKind.BITFLIP, bit=9, trigger_rate=0.2)
        )
        server = MasstreeServer(runtime, order=8)
        with runtime:
            try:
                for key in range(60):
                    server.handle(update_op(key, key))
            except Exception:
                pass
        assert runtime.detections > 0

    def test_no_fp_instructions_in_masstree(self):
        from repro.closures.analysis import infer_units
        from repro.closures.annotation import CLOSURE_REGISTRY

        for name in ("mt.get", "mt.update", "mt.scan"):
            assert Unit.FPU not in infer_units(CLOSURE_REGISTRY[name].fn)
