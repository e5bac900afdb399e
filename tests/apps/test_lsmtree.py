"""LSMTree application tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.lsmtree import LsmTreeServer, lsm_flush, lsm_get, lsm_put
from repro.machine.cpu import Machine
from repro.machine.faults import Fault, FaultKind
from repro.machine.units import Unit
from repro.memory.version import approx_size
from repro.runtime.orthrus import OrthrusRuntime
from repro.workloads.base import Op, OpKind
from repro.workloads.ycsb import YcsbWriteWorkload

from tests.apps.conftest import make_faulty_runtime


def put_op(key, value):
    return Op(OpKind.PUT, key, value)


class TestFunctional:
    def test_put_then_get_from_memtable(self, runtime):
        server = LsmTreeServer(runtime, memtable_limit=100, seed=1)
        with runtime:
            server.handle(put_op(5, "five"))
            assert server.handle(Op(OpKind.GET, 5)) == "five"

    def test_get_missing(self, runtime):
        server = LsmTreeServer(runtime, seed=1)
        with runtime:
            assert server.handle(Op(OpKind.GET, 42)) is None

    def test_overwrite_in_memtable(self, runtime):
        server = LsmTreeServer(runtime, memtable_limit=100, seed=1)
        with runtime:
            server.handle(put_op(5, "a"))
            server.handle(put_op(5, "b"))
            assert server.handle(Op(OpKind.GET, 5)) == "b"
        assert server.items() == {5: "b"}

    def test_sequence_numbers_monotonic(self, runtime):
        # The seq number is internal (not externalized by handle), but the
        # data-path operator still assigns strictly increasing values.
        server = LsmTreeServer(runtime, memtable_limit=100, seed=1)
        with runtime:
            seqs = [
                lsm_put(server.tree, runtime.new((k, str(k)))) for k in range(5)
            ]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 5

    def test_handle_put_returns_stored(self, runtime):
        server = LsmTreeServer(runtime, memtable_limit=100, seed=1)
        with runtime:
            assert server.handle(put_op(1, "v")) == "STORED"

    def test_flush_moves_data_to_disk(self, runtime):
        server = LsmTreeServer(runtime, memtable_limit=4, seed=1)
        with runtime:
            for key in range(4):
                server.handle(put_op(key, f"v{key}"))
        assert server.flushes == 1
        assert len(server.tree.disk) == 1
        pairs, _ = server.tree.disk[0]
        assert [k for k, _ in pairs] == [0, 1, 2, 3]  # sorted

    def test_get_reads_through_to_disk(self, runtime):
        server = LsmTreeServer(runtime, memtable_limit=4, seed=1)
        with runtime:
            for key in range(4):
                server.handle(put_op(key, f"v{key}"))
            assert server.handle(Op(OpKind.GET, 2)) == "v2"

    def test_newest_block_wins_after_multiple_flushes(self, runtime):
        server = LsmTreeServer(runtime, memtable_limit=2, compaction_threshold=99, seed=1)
        with runtime:
            server.handle(put_op(1, "old"))
            server.handle(put_op(2, "x"))  # flush 1
            server.handle(put_op(1, "new"))
            server.handle(put_op(3, "y"))  # flush 2
            assert server.handle(Op(OpKind.GET, 1)) == "new"

    def test_compaction_merges_blocks(self, runtime):
        server = LsmTreeServer(runtime, memtable_limit=2, compaction_threshold=2, seed=1)
        with runtime:
            for key in range(8):
                server.handle(put_op(key % 3, f"v{key}"))
        assert server.compactions >= 1
        assert len(server.tree.disk) <= 2
        assert server.items()[2] == "v5"

    def test_clean_workload_validates(self, runtime):
        server = LsmTreeServer(runtime, memtable_limit=32, seed=2)
        model = {}
        with runtime:
            for op in YcsbWriteWorkload(n_keys=50, seed=2).ops(200):
                server.handle(op)
                model[op.key] = op.value
        assert server.items() == model
        assert runtime.detections == 0

    def test_resident_bytes_is_the_size_of_the_disk_after_every_request(self, runtime):
        # resident_bytes_extra is a running total kept by the two writers of
        # tree.disk; it must equal the walk it replaced at every point a
        # driver can read it, across flushes, compactions and tombstones.
        server = LsmTreeServer(runtime, memtable_limit=12, compaction_threshold=4, seed=3)
        assert server.resident_bytes_extra() == 0
        sizes = set()
        with runtime:
            for index, op in enumerate(YcsbWriteWorkload(n_keys=90, seed=4).ops(300)):
                if index % 7 == 3:
                    op = Op(OpKind.REMOVE, op.key)
                elif index % 11 == 5:
                    op = Op(OpKind.GET, op.key)
                server.handle(op)
                walked = sum(approx_size(block) for block in server.tree.disk)
                assert server.resident_bytes_extra() == walked
                sizes.add(walked)
        assert server.flushes >= 8 and server.compactions >= 2
        assert len(sizes) > 2  # grew and shrank, not a constant
        assert runtime.detections == 0

    def test_skiplist_randomness_is_replayed(self, runtime):
        # Validation must agree even though level selection is random:
        # the random draw is recorded and replayed, never re-executed.
        server = LsmTreeServer(runtime, memtable_limit=1000, seed=9)
        with runtime:
            for key in range(50):
                server.handle(put_op(key, str(key)))
        assert runtime.detections == 0
        assert runtime.validations >= 50


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 50), st.text(max_size=6)), min_size=1, max_size=50))
def test_lsm_matches_dict_model(pairs):
    machine = Machine(cores_per_node=4, numa_nodes=1)
    runtime = OrthrusRuntime(machine=machine, app_cores=[0], validation_cores=[1])
    server = LsmTreeServer(runtime, memtable_limit=8, compaction_threshold=3, seed=5)
    model = {}
    with runtime:
        for key, value in pairs:
            server.handle(put_op(key, value))
            model[key] = value
    assert server.items() == model
    assert runtime.detections == 0


class TestFaultBehaviour:
    def test_fpu_level_fault_detected(self):
        # FP corruption perturbs skiplist level selection → structural
        # divergence caught by re-execution (LSMTree's fp column, Table 2).
        runtime = make_faulty_runtime(
            Fault(unit=Unit.FPU, kind=FaultKind.BITFLIP, bit=62)
        )
        server = LsmTreeServer(runtime, memtable_limit=1000, seed=1)
        with runtime:
            try:
                for key in range(60):
                    server.handle(put_op(key, str(key)))
            except Exception:
                pass
        assert runtime.detections > 0

    def test_flush_checksum_fault_detected(self):
        from repro.machine.instruction import Site

        runtime = make_faulty_runtime(
            Fault(unit=Unit.SIMD, kind=FaultKind.BITFLIP, bit=3,
                  site=Site("lsm.flush", "vsum", 0))
        )
        server = LsmTreeServer(runtime, memtable_limit=4, seed=1)
        with runtime:
            for key in range(4):
                server.handle(put_op(key, str(key)))
        assert runtime.detections == 1

    def test_lsm_tagged_error_prone(self):
        from repro.closures.annotation import CLOSURE_REGISTRY

        assert CLOSURE_REGISTRY["lsm.put"].error_prone  # fp + simd
