"""Versioned-heap semantics: versions, windows, reclamation, accounting."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import HeapError, ReclaimedVersionError
from repro.memory.heap import PrivateHeap, VersionedHeap


@pytest.fixture
def heap():
    return VersionedHeap()


class TestAllocation:
    def test_allocate_returns_distinct_ids(self, heap):
        a = heap.allocate("a")
        b = heap.allocate("b")
        assert a != b

    def test_latest_returns_payload(self, heap):
        obj = heap.allocate({"k": 1})
        assert heap.latest(obj).value == {"k": 1}

    def test_checksum_attached(self, heap):
        obj = heap.allocate("payload")
        assert heap.latest(obj).checksum is not None

    def test_checksums_can_be_disabled(self):
        heap = VersionedHeap(checksums=False)
        obj = heap.allocate("payload")
        assert heap.latest(obj).checksum is None

    def test_checksum_override_installed_verbatim(self, heap):
        obj = heap.allocate("payload", checksum_override=0x1234)
        assert heap.latest(obj).checksum == 0x1234

    def test_unknown_object_raises(self, heap):
        with pytest.raises(HeapError):
            heap.latest(999)


class TestVersioning:
    def test_store_creates_new_version(self, heap):
        obj = heap.allocate(1)
        v1 = heap.latest(obj)
        v2 = heap.store(obj, 2)
        assert v2.version_id > v1.version_id
        assert heap.latest(obj).value == 2

    def test_old_version_still_readable_by_id(self, heap):
        obj = heap.allocate(1)
        v1 = heap.latest(obj)
        heap.store(obj, 2)
        assert heap.version(v1.version_id).value == 1

    def test_store_closes_previous_window(self, heap):
        obj = heap.allocate(1)
        v1 = heap.latest(obj)
        assert v1.live
        heap.store(obj, 2)
        assert not v1.live
        assert v1.superseded_at is not None

    def test_windows_are_ordered(self, heap):
        obj = heap.allocate(1)
        v1 = heap.latest(obj)
        v2 = heap.store(obj, 2)
        assert v1.created_at < v2.created_at
        assert v1.superseded_at == v2.created_at

    def test_visible_at_returns_correct_snapshot(self, heap):
        obj = heap.allocate("first")
        t1 = heap.latest(obj).created_at
        heap.store(obj, "second")
        t2 = heap.latest(obj).created_at
        assert heap.visible_at(obj, t1).value == "first"
        assert heap.visible_at(obj, t2).value == "second"

    def test_visible_at_before_creation_raises(self, heap):
        obj = heap.allocate("x")
        created = heap.latest(obj).created_at
        with pytest.raises(HeapError):
            heap.visible_at(obj, created - 1)


class TestDelete:
    def test_delete_closes_window(self, heap):
        obj = heap.allocate("x")
        version = heap.latest(obj)
        heap.delete(obj)
        assert not version.live
        assert not heap.exists(obj)

    def test_load_after_delete_raises(self, heap):
        obj = heap.allocate("x")
        heap.delete(obj)
        with pytest.raises(HeapError):
            heap.latest(obj)

    def test_store_after_delete_raises(self, heap):
        obj = heap.allocate("x")
        heap.delete(obj)
        with pytest.raises(HeapError):
            heap.store(obj, "y")

    def test_double_delete_raises(self, heap):
        obj = heap.allocate("x")
        heap.delete(obj)
        with pytest.raises(HeapError):
            heap.delete(obj)


class TestReclamation:
    def test_reclaim_before_watermark(self, heap):
        obj = heap.allocate(1)
        v1 = heap.latest(obj)
        heap.store(obj, 2)
        count = heap.reclaim_before(math.inf)
        assert count == 1
        assert v1.reclaimed

    def test_live_versions_never_reclaimed(self, heap):
        obj = heap.allocate(1)
        heap.store(obj, 2)
        heap.reclaim_before(math.inf)
        assert heap.latest(obj).value == 2

    def test_reclaim_respects_watermark(self, heap):
        obj = heap.allocate(1)
        heap.store(obj, 2)
        closed_at = heap.version(heap.latest(obj).version_id).created_at
        assert heap.reclaim_before(closed_at) == 0  # window ends AT closed_at
        assert heap.reclaim_before(closed_at + 0.5) == 1

    def test_reading_reclaimed_version_raises(self, heap):
        obj = heap.allocate(1)
        v1 = heap.latest(obj)
        heap.store(obj, 2)
        heap.reclaim_before(math.inf)
        with pytest.raises((HeapError, ReclaimedVersionError)):
            heap.version(v1.version_id)

    def test_lookups_name_what_is_wrong(self, heap):
        with pytest.raises(HeapError, match="unknown object 99"):
            heap.latest(99)
        with pytest.raises(HeapError, match="unknown version 99"):
            heap.version(99)
        obj = heap.allocate(1)
        stale = heap.latest(obj)
        heap.store(obj, 2)
        heap.reclaim_before(math.inf)
        assert stale.reclaimed and not heap.latest(obj).reclaimed
        heap.delete(obj)
        with pytest.raises(HeapError, match=f"load of deleted object {obj}"):
            heap.latest(obj)
        # a caller still holding a reclaimed version object: the payload
        # is the sentinel, and a lookup by id that found it would refuse it
        heap._versions[stale.version_id] = stale
        with pytest.raises(ReclaimedVersionError, match=f"version {stale.version_id} was reclaimed"):
            heap.version(stale.version_id)

    def test_reclaim_updates_accounting(self, heap):
        obj = heap.allocate("abcdefgh")
        heap.store(obj, "ijklmnop")
        before = heap.versioned_bytes
        heap.reclaim_before(math.inf)
        assert heap.versioned_bytes < before
        assert heap.stale_bytes == 0
        assert heap.versioned_bytes == heap.live_bytes + heap.header_bytes


class TestAccounting:
    def test_live_bytes_tracks_only_live(self, heap):
        obj = heap.allocate("x" * 100)
        first = heap.live_bytes
        heap.store(obj, "y" * 100)
        assert heap.live_bytes == pytest.approx(first, abs=8)
        assert heap.versioned_bytes > heap.live_bytes

    def test_memory_overhead_is_header_only_when_no_stale(self, heap):
        heap.allocate("x" * 100)
        expected = heap.header_bytes / heap.live_bytes
        assert heap.memory_overhead == pytest.approx(expected)
        assert heap.stale_bytes == 0

    def test_memory_overhead_grows_with_stale_versions(self, heap):
        obj = heap.allocate("x" * 50)
        for _ in range(4):
            heap.store(obj, "x" * 50)
        assert heap.memory_overhead > 1.0

    def test_counters(self, heap):
        obj = heap.allocate(1)
        heap.store(obj, 2)
        heap.store(obj, 3)
        assert heap.versions_created == 3
        heap.reclaim_before(math.inf)
        assert heap.versions_reclaimed == 2


class TestPrivateHeap:
    def test_shadow_allocation_gets_negative_ids(self):
        private = PrivateHeap()
        a = private.allocate("a")
        b = private.allocate("b")
        assert a < 0 and b < 0 and a != b

    def test_writes_recorded_in_order(self):
        private = PrivateHeap()
        a = private.allocate("a")
        private.store(a, "a2")
        private.store(7, "shared-write")
        assert [value for _, value in private.writes] == ["a", "a2", "shared-write"]

    def test_load_sees_latest_store(self):
        private = PrivateHeap()
        private.store(5, "v1")
        private.store(5, "v2")
        assert private.load(5) == "v2"

    def test_delete_then_load_raises(self):
        private = PrivateHeap()
        private.store(5, "v")
        private.delete(5)
        with pytest.raises(HeapError):
            private.load(5)

    def test_deletes_keep_their_order_and_shadow_a_later_store(self):
        # ``deleted`` is the ordered list the comparison reads; membership
        # is tested against a set kept beside it, with the list's answers
        private = PrivateHeap()
        for obj in (9, 3, 9, 7):
            private.store(obj, "v")
            private.delete(obj)
        assert private.deleted == [9, 3, 9, 7]
        private.store(3, "again")
        assert private.has(3)
        with pytest.raises(HeapError, match="deleted shadow object 3"):
            private.load(3)
        private.store(4, "never deleted")
        assert private.load(4) == "never deleted"

    def test_has(self):
        private = PrivateHeap()
        assert not private.has(1)
        private.store(1, "x")
        assert private.has(1)


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=60))
def test_heap_matches_dict_model(updates):
    """Versioned heap's live view must behave like a plain dict."""
    heap = VersionedHeap()
    model: dict[int, int] = {}
    handles: dict[int, int] = {}
    for step, key in enumerate(updates):
        if key not in handles:
            handles[key] = heap.allocate(step)
        else:
            heap.store(handles[key], step)
        model[key] = step
    for key, obj in handles.items():
        assert heap.latest(obj).value == model[key]


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=40))
def test_reclamation_never_touches_live_versions(keys):
    heap = VersionedHeap()
    handles = {}
    for step, key in enumerate(keys):
        if key not in handles:
            handles[key] = heap.allocate(step)
        else:
            heap.store(handles[key], step)
        heap.reclaim_before(math.inf)
    for key, obj in handles.items():
        heap.latest(obj)  # must not raise
    assert heap.stale_bytes == 0
