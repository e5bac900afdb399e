"""Execution-context semantics: APP vs VAL, logging, syscalls, checksums."""

import pytest

from repro.closures.context import ExecutionContext, current, ops, syscall
from repro.closures.log import ClosureLog
from repro.detection import DetectionEvent
from repro.errors import ChecksumMismatch, NoActiveContext
from repro.machine.core import Core
from repro.memory.checksum import checksum_of
from repro.memory.heap import VersionedHeap
from repro.memory.pointer import OrthrusPtr


@pytest.fixture
def heap():
    return VersionedHeap()


@pytest.fixture
def core():
    return Core(0)


def app_ctx(core, heap, seq=1, **kwargs):
    log = ClosureLog(seq=seq, closure_name="op", caller="test")
    return ExecutionContext(ExecutionContext.APP, core, heap, log, **kwargs), log


class TestContextStack:
    def test_no_context_by_default(self):
        assert current() is None

    def test_ops_outside_context_raises(self):
        with pytest.raises(NoActiveContext):
            ops()

    def test_context_visible_inside_with(self, core, heap):
        ctx, _ = app_ctx(core, heap)
        with ctx:
            assert current() is ctx
            assert ops() is core
        assert current() is None

    def test_context_pops_on_exception(self, core, heap):
        ctx, _ = app_ctx(core, heap)
        with pytest.raises(RuntimeError):
            with ctx:
                raise RuntimeError("boom")
        assert current() is None

    def test_a_thread_that_never_ran_a_closure_has_no_context(self, core, heap):
        # current() on a thread with no stack at all, on one whose stack
        # has emptied, and nested
        import threading

        seen = []
        outer, _ = app_ctx(core, heap)
        inner, _ = app_ctx(Core(1), heap, seq=2)

        def body():
            seen.append(current())
            with outer:
                with inner:
                    seen.append(current())
                seen.append(current())
            seen.append(current())

        thread = threading.Thread(target=body)
        thread.start()
        thread.join()
        assert seen == [None, inner, outer, None]

    def test_invalid_mode_rejected(self, core, heap):
        with pytest.raises(ValueError):
            ExecutionContext("bogus", core, heap, ClosureLog(1, "op", "t"))


class TestAppMode:
    def test_allocate_logs_output(self, core, heap):
        ctx, log = app_ctx(core, heap)
        with ctx:
            ptr = ctx.allocate("value")
        assert ptr.obj_id in log.allocated
        assert len(log.output_versions) == 1

    def test_load_pins_input_version(self, core, heap):
        obj = heap.allocate("original")
        pinned = heap.latest(obj).version_id
        ctx, log = app_ctx(core, heap)
        with ctx:
            assert ctx.load(obj) == "original"
        assert log.inputs[obj] == pinned

    def test_input_pin_is_first_access(self, core, heap):
        obj = heap.allocate("v0")
        first = heap.latest(obj).version_id
        ctx, log = app_ctx(core, heap)
        with ctx:
            ctx.load(obj)
            ctx.store(obj, "v1")
            ctx.load(obj)
        assert log.inputs[obj] == first

    def test_store_creates_version_and_logs(self, core, heap):
        obj = heap.allocate("v0")
        ctx, log = app_ctx(core, heap)
        with ctx:
            ctx.store(obj, "v1")
        assert heap.latest(obj).value == "v1"
        assert len(log.output_versions) == 1

    def test_closure_sees_own_writes(self, core, heap):
        obj = heap.allocate("v0")
        ctx, _ = app_ctx(core, heap)
        with ctx:
            ctx.store(obj, "v1")
            assert ctx.load(obj) == "v1"

    def test_delete_logged(self, core, heap):
        obj = heap.allocate("x")
        ctx, log = app_ctx(core, heap)
        with ctx:
            ctx.delete(obj)
        assert obj in log.deletes

    def test_trace_attached_on_exit(self, core, heap):
        ctx, log = app_ctx(core, heap)
        with ctx:
            core.alu.add(1, 2)
        assert log.trace is not None
        assert log.trace.total_instructions == 1


class TestChecksumVerification:
    def test_clean_object_passes(self, core, heap):
        obj = heap.allocate("clean")
        ctx, _ = app_ctx(core, heap)
        with ctx:
            ctx.load(obj)  # must not raise

    def test_corrupted_transfer_detected(self, core, heap):
        # Simulates Figure 3: payload corrupted in the control path while
        # the header CRC still matches the original payload.
        original_crc = checksum_of("original")
        obj = heap.allocate("corrupted", checksum_override=original_crc)
        ctx, _ = app_ctx(core, heap)
        with pytest.raises(ChecksumMismatch):
            with ctx:
                ctx.load(obj)

    def test_detector_callback_instead_of_raise(self, core, heap):
        events: list[DetectionEvent] = []
        obj = heap.allocate("bad", checksum_override=checksum_of("good"))
        ctx, _ = app_ctx(core, heap, detector=events.append)
        with ctx:
            ctx.load(obj)
        assert len(events) == 1
        assert events[0].kind == "checksum"

    def test_verification_only_on_first_load(self, core, heap):
        events: list[DetectionEvent] = []
        obj = heap.allocate("bad", checksum_override=checksum_of("good"))
        ctx, _ = app_ctx(core, heap, detector=events.append)
        with ctx:
            ctx.load(obj)
            ctx.load(obj)
        assert len(events) == 1

    def test_verification_can_be_disabled(self, core, heap):
        obj = heap.allocate("bad", checksum_override=checksum_of("good"))
        ctx, _ = app_ctx(core, heap, verify_checksums=False)
        with ctx:
            ctx.load(obj)  # must not raise

    def test_allocation_inside_closure_not_probed(self, core, heap):
        ctx, _ = app_ctx(core, heap)
        with ctx:
            ptr = ctx.allocate("fresh")
            ctx.load(ptr.obj_id)  # must not recompute/verify


class TestSyscalls:
    def test_app_records_results(self, core, heap):
        ctx, log = app_ctx(core, heap)
        with ctx:
            value = syscall("random", lambda: 0.42)
        assert value == 0.42
        assert log.syscalls == [0.42]

    def test_val_replays_without_executing(self, core, heap):
        log = ClosureLog(seq=1, closure_name="op", caller="t", syscalls=[0.42])
        ctx = ExecutionContext(ExecutionContext.VAL, core, heap, log)
        called = []
        with ctx:
            value = syscall("random", lambda: called.append(1) or 0.99)
        assert value == 0.42
        assert called == []

    def test_val_extra_syscall_returns_none(self, core, heap):
        log = ClosureLog(seq=1, closure_name="op", caller="t", syscalls=[])
        ctx = ExecutionContext(ExecutionContext.VAL, core, heap, log)
        with ctx:
            assert syscall("random", lambda: 1.0) is None


class TestValMode:
    def test_load_reads_pinned_version(self, core, heap):
        obj = heap.allocate("v0")
        pinned = heap.latest(obj).version_id
        heap.store(obj, "v1")  # app moved on after the closure
        log = ClosureLog(seq=1, closure_name="op", caller="t", inputs={obj: pinned})
        ctx = ExecutionContext(ExecutionContext.VAL, core, heap, log)
        with ctx:
            assert ctx.load(obj) == "v0"

    def test_store_goes_to_private_heap(self, core, heap):
        obj = heap.allocate("v0")
        pinned = heap.latest(obj).version_id
        log = ClosureLog(seq=1, closure_name="op", caller="t", inputs={obj: pinned})
        ctx = ExecutionContext(ExecutionContext.VAL, core, heap, log)
        with ctx:
            ctx.store(obj, "val-write")
            assert ctx.load(obj) == "val-write"
        assert heap.latest(obj).value == "v0"  # shared heap untouched

    def test_unpinned_object_uses_start_time_snapshot(self, core, heap):
        obj = heap.allocate("old")
        start = heap.latest(obj).created_at
        heap.store(obj, "new")
        log = ClosureLog(seq=1, closure_name="op", caller="t", start_time=start)
        ctx = ExecutionContext(ExecutionContext.VAL, core, heap, log)
        with ctx:
            assert ctx.load(obj) == "old"

    def test_val_allocation_is_shadow(self, core, heap):
        log = ClosureLog(seq=1, closure_name="op", caller="t")
        ctx = ExecutionContext(ExecutionContext.VAL, core, heap, log)
        with ctx:
            ptr = ctx.allocate("shadow")
        assert ptr.obj_id < 0
        assert ctx.private.writes == [(ptr.obj_id, "shadow")]


class TestCanonicalization:
    def test_new_allocation_canonicalized_by_position(self, core, heap):
        ctx, _ = app_ctx(core, heap)
        with ctx:
            a = ctx.allocate("a")
            b = ctx.allocate("b")
        assert ctx.canonicalize(a) == ("ptr:new", 0)
        assert ctx.canonicalize(b) == ("ptr:new", 1)

    def test_preexisting_object_canonicalized_by_id(self, core, heap):
        obj = heap.allocate("x")
        ptr = OrthrusPtr(heap, obj)
        ctx, _ = app_ctx(core, heap)
        assert ctx.canonicalize(ptr) == ("ptr", obj)

    def test_nested_structures(self, core, heap):
        ctx, _ = app_ctx(core, heap)
        with ctx:
            ptr = ctx.allocate("a")
        value = {"k": [ptr, 1], "t": (ptr,)}
        assert ctx.canonicalize(value) == {"k": [("ptr:new", 0), 1], "t": (("ptr:new", 0),)}

    def test_app_and_val_positions_align(self, core, heap):
        app, _ = app_ctx(core, heap)
        with app:
            app_ptr = app.allocate("x")
        val_log = ClosureLog(seq=2, closure_name="op", caller="t")
        val = ExecutionContext(ExecutionContext.VAL, Core(1), heap, val_log)
        with val:
            val_ptr = val.allocate("x")
        assert app.canonicalize(app_ptr) == val.canonicalize(val_ptr)
