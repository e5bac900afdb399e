"""The versioned user-data space and the validator's private heap.

The application heap is split (Figure 2) into a *private space* (ordinary
Python objects, invisible to Orthrus) and a *user-data space* holding
versioned objects.  The user-data space is shared read-only with the
validator process; every update creates a new out-of-place
:class:`~repro.memory.version.Version`, which is what makes out-of-order
validation possible: a closure log pins the exact versions its re-execution
must see, independent of what the application has done since.

:class:`PrivateHeap` is the validator-side write buffer: re-executed stores
land there (never in the shared space), keyed by object id, so validation
cannot interfere with the application (§3.3).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterator

from repro.clock import Clock, LogicalClock
from repro.errors import HeapError, ReclaimedVersionError
from repro.memory.checksum import checksum_of, sealed
from repro.memory.version import INTACT, RECLAIMED, Version, approx_size


class _ObjectRecord:
    __slots__ = ("obj_id", "version_ids", "deleted_at")

    def __init__(self, obj_id: int):
        self.obj_id = obj_id
        self.version_ids: list[int] = []
        self.deleted_at: float | None = None


#: bytes of version-header metadata per version (ids, window timestamps,
#: CRC, creator) — an Orthrus-only cost counted in ``versioned_bytes`` but
#: not in the vanilla ``live_bytes`` baseline.
VERSION_HEADER_BYTES = 32


class VersionedHeap:
    """The shared, versioned user-data space.

    Args:
        clock: time source for visible windows; defaults to a logical
            counter that ticks on every version creation.
        checksums: compute a CRC-16 per version header (§3.4).  Disabled
            only by the checksum ablation benchmark.
    """

    def __init__(self, clock: Clock | None = None, checksums: bool = True):
        self._clock = clock if clock is not None else LogicalClock()
        self._checksums = checksums
        self._objects: dict[int, _ObjectRecord] = {}
        self._versions: dict[int, Version] = {}
        self._closed: deque[Version] = deque()  # superseded, in close order
        self._next_obj = 1
        self._next_version = 1
        #: bytes held by all unreclaimed versions (live + stale)
        self.versioned_bytes = 0
        #: bytes held by live versions only — the vanilla app's footprint
        self.live_bytes = 0
        self.versions_created = 0
        self.versions_reclaimed = 0

    # ------------------------------------------------------------------
    # allocation / store / delete
    # ------------------------------------------------------------------
    def allocate(
        self,
        value: Any,
        creator: int | None = None,
        checksum_override: Any = None,
    ) -> int:
        """OrthrusNew: place a new user-data object into versioned memory.

        ``checksum_override`` installs a caller-supplied CRC instead of
        recomputing one — used when materializing an object received over
        the network, whose header CRC was computed at the *sender* and must
        travel with the payload so control-path corruption is detectable
        (Figure 3).  The override :data:`~repro.memory.version.INTACT`
        says ``value`` is the sender's own sealed payload and its bytes
        arrived unchanged, so the CRC they carried is the payload's own.
        """
        obj_id = self._next_obj
        self._next_obj += 1
        self._objects[obj_id] = _ObjectRecord(obj_id)
        self._new_version(obj_id, value, creator, checksum_override)
        return obj_id

    def store(self, obj_id: int, value: Any, creator: int | None = None) -> Version:
        """Create a new version of ``obj_id`` (out-of-place update)."""
        record = self._record(obj_id)
        if record.deleted_at is not None:
            raise HeapError(f"store to deleted object {obj_id}")
        return self._new_version(obj_id, value, creator)

    def delete(self, obj_id: int) -> None:
        """OrthrusDelete: close the live version's visible window."""
        record = self._record(obj_id)
        if record.deleted_at is not None:
            raise HeapError(f"double delete of object {obj_id}")
        now = self._advance()
        record.deleted_at = now
        if record.version_ids:
            last = self._versions[record.version_ids[-1]]
            if last.superseded_at is None:
                last.superseded_at = now
                self.live_bytes -= last.size
                self._closed.append(last)

    def _new_version(
        self,
        obj_id: int,
        value: Any,
        creator: int | None,
        checksum_override: Any = None,
    ) -> Version:
        record = self._objects[obj_id]
        now = self._advance()
        version = Version(
            version_id=self._next_version,
            obj_id=obj_id,
            value=value,
            crc=self._header(value) if checksum_override is None else checksum_override,
            created_at=now,
            creator=creator,
            size=approx_size(value),
        )
        self._next_version += 1
        if record.version_ids:
            previous = self._versions[record.version_ids[-1]]
            if previous.superseded_at is None:
                previous.superseded_at = now
                self.live_bytes -= previous.size
                self._closed.append(previous)
        record.version_ids.append(version.version_id)
        self._versions[version.version_id] = version
        self.versioned_bytes += version.size + VERSION_HEADER_BYTES
        self.live_bytes += version.size
        self.versions_created += 1
        return version

    def _header(self, value: Any) -> Any:
        """Header CRC field of a payload the heap installs: a sealed
        payload cannot change, so it is intact; any other's CRC is taken
        now, before anyone can mutate it."""
        if not self._checksums:
            return None
        return INTACT if sealed(value, pointers=True) else checksum_of(value)

    def _advance(self) -> float:
        clock = self._clock
        if isinstance(clock, LogicalClock):
            return clock.tick()
        return clock.now()

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def _record(self, obj_id: int) -> _ObjectRecord:
        record = self._objects.get(obj_id)
        if record is None:
            raise HeapError(f"unknown object {obj_id}")
        return record

    def exists(self, obj_id: int) -> bool:
        record = self._objects.get(obj_id)
        return record is not None and record.deleted_at is None

    def latest(self, obj_id: int) -> Version:
        """The live version of ``obj_id``."""
        record = self._objects.get(obj_id)
        if record is None:
            raise HeapError(f"unknown object {obj_id}")
        if record.deleted_at is not None:
            raise HeapError(f"load of deleted object {obj_id}")
        version = self._versions[record.version_ids[-1]]
        if version.value is RECLAIMED:
            raise ReclaimedVersionError(f"live version of obj {obj_id} was reclaimed")
        return version

    def version(self, version_id: int) -> Version:
        version = self._versions.get(version_id)
        if version is None:
            raise HeapError(f"unknown version {version_id}")
        if version.value is RECLAIMED:
            raise ReclaimedVersionError(f"version {version_id} was reclaimed")
        return version

    def has_version(self, version_id: int) -> bool:
        """True while ``version_id`` is present and unreclaimed (a
        reclaimed version is unrecoverable rather than an error)."""
        version = self._versions.get(version_id)
        return version is not None and not version.reclaimed

    def visible_at(self, obj_id: int, when: float) -> Version:
        """The version of ``obj_id`` whose visible window contains ``when``.

        Used by the validator when a re-execution touches an object the
        original execution did not record (possible when the fault changed
        the APP's control flow): the re-execution must see the snapshot
        that was current when the closure started.
        """
        record = self._record(obj_id)
        for version_id in reversed(record.version_ids):
            version = self._versions[version_id]
            if version.created_at <= when and (
                version.superseded_at is None or when < version.superseded_at
            ):
                if version.reclaimed:
                    raise ReclaimedVersionError(
                        f"version {version_id} of obj {obj_id} was reclaimed"
                    )
                return version
        raise HeapError(f"object {obj_id} has no version visible at t={when}")

    # ------------------------------------------------------------------
    # reclamation support (§3.6)
    # ------------------------------------------------------------------
    def reclaim_before(self, watermark: float) -> int:
        """Reclaim every version whose visible window closed before
        ``watermark``; returns the number reclaimed.

        The closed-version queue is in window-close order (the clock is
        monotonic), so this is a single scan from the oldest end — the
        batched, watermark-based GC of §3.6.
        """
        reclaimed = 0
        closed = self._closed
        while closed and closed[0].superseded_at is not None and closed[0].superseded_at < watermark:
            version = closed.popleft()
            self._reclaim(version)
            reclaimed += 1
        return reclaimed

    def _reclaim(self, version: Version) -> None:
        if version.reclaimed:
            return
        self.versioned_bytes -= version.size + VERSION_HEADER_BYTES
        self.versions_reclaimed += 1
        version.value = RECLAIMED
        record = self._objects.get(version.obj_id)
        if record is not None:
            try:
                record.version_ids.remove(version.version_id)
            except ValueError:
                pass
        del self._versions[version.version_id]

    # ------------------------------------------------------------------
    # accounting / introspection
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Current time on the heap's clock (observability timestamps)."""
        return self._clock.now()

    @property
    def live_version_count(self) -> int:
        """Unreclaimed versions that are the latest of a live object."""
        return len(self._versions) - len(self._closed)

    @property
    def reclaimable_version_count(self) -> int:
        """Superseded-but-unreclaimed versions awaiting the next GC pass."""
        return len(self._closed)

    @property
    def header_bytes(self) -> int:
        """Version-header metadata held by all unreclaimed versions."""
        return VERSION_HEADER_BYTES * len(self._versions)

    @property
    def stale_bytes(self) -> int:
        """Payload bytes held by superseded-but-unreclaimed versions."""
        return self.versioned_bytes - self.header_bytes - self.live_bytes

    @property
    def memory_overhead(self) -> float:
        """Versioning overhead relative to the vanilla (live-only) footprint."""
        if self.live_bytes == 0:
            return 0.0
        return self.versioned_bytes / self.live_bytes - 1.0

    def live_versions(self) -> Iterator[Version]:
        for record in self._objects.values():
            if record.deleted_at is None and record.version_ids:
                yield self._versions[record.version_ids[-1]]

    def __len__(self) -> int:
        return len(self._versions)


class PrivateHeap:
    """Validator-side write buffer (§3.3).

    Stores during re-execution land here; reads first consult this buffer,
    then fall back to the versions pinned by the closure log.  Output
    comparison walks :attr:`writes` in creation order against the log's
    recorded output versions.
    """

    def __init__(self):
        self._values: dict[int, Any] = {}
        self._next_shadow = -1
        #: (obj_id, value) pairs in store order — the VAL-side outputs.
        self.writes: list[tuple[int, Any]] = []
        #: obj_ids deleted during re-execution, in order.
        self.deleted: list[int] = []
        self._deleted_ids: set[int] = set()  # membership for :meth:`load`

    def allocate(self, value: Any) -> int:
        """Shadow OrthrusNew: allocate a validator-private object."""
        obj_id = self._next_shadow
        self._next_shadow -= 1
        self._values[obj_id] = value
        self.writes.append((obj_id, value))
        return obj_id

    def store(self, obj_id: int, value: Any) -> None:
        self._values[obj_id] = value
        self.writes.append((obj_id, value))

    def delete(self, obj_id: int) -> None:
        self.deleted.append(obj_id)
        self._deleted_ids.add(obj_id)
        self._values.pop(obj_id, None)

    def has(self, obj_id: int) -> bool:
        return obj_id in self._values

    def load(self, obj_id: int) -> Any:
        if obj_id in self._deleted_ids:
            raise HeapError(f"validator load of deleted shadow object {obj_id}")
        return self._values[obj_id]
