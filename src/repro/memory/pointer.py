"""Orthrus pointers: the only handle through which user data is touched.

``OrthrusPtr`` mirrors Listing 4: the payload is obtained with
:meth:`load` (immutable), and every update goes through :meth:`store`,
which creates a new version out-of-place and logs it for validation.  The
semantics of a load/store depend on the execution context active on the
current thread (APP vs VAL, §3.3); outside any closure the pointer degrades
to direct (unlogged, unverified) access, which is how control-path code
handles user data it is not supposed to modify.
"""

from __future__ import annotations

from typing import Any

from repro.memory.heap import VersionedHeap


def _current():
    """``repro.closures.context.current()``, imported on the first call.

    ``closures.context`` imports this package, so the import cannot sit at
    module level; the first call rebinds this name to the real function and
    later calls pay no import.
    """
    global _current
    from repro.closures.context import current

    _current = current
    return current()


class OrthrusPtr:
    """Smart pointer into the versioned user-data space."""

    __slots__ = ("heap", "obj_id")

    #: marker checked by the serializer/comparator without importing this
    #: module (avoids an import cycle with the checksum layer)
    __orthrus_ptr__ = True

    def __init__(self, heap: VersionedHeap, obj_id: int):
        self.heap = heap
        self.obj_id = obj_id

    def load(self) -> Any:
        """Read the payload (immutable; updates must go through store)."""
        ctx = _current()
        if ctx is not None:
            return ctx.load(self.obj_id)
        return self.heap.latest(self.obj_id).value

    def store(self, value: Any) -> None:
        """Write a new version of the payload."""
        ctx = _current()
        if ctx is not None:
            ctx.store(self.obj_id, value)
        else:
            self.heap.store(self.obj_id, value)

    def delete(self) -> None:
        """OrthrusDelete: end the object's life."""
        ctx = _current()
        if ctx is not None:
            ctx.delete(self.obj_id)
        else:
            self.heap.delete(self.obj_id)

    @property
    def version_id(self) -> int:
        """Version id of the live version (unmanaged introspection)."""
        return self.heap.latest(self.obj_id).version_id

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, OrthrusPtr)
            and other.obj_id == self.obj_id
            and other.heap is self.heap
        )

    def __hash__(self) -> int:
        return hash((id(self.heap), self.obj_id))

    def __repr__(self) -> str:
        return f"OrthrusPtr(obj{self.obj_id})"


def orthrus_new(value: Any, heap: VersionedHeap | None = None) -> OrthrusPtr:
    """OrthrusNew: allocate a user-data object in versioned memory.

    Inside a closure the allocation is attributed to the running execution
    and logged; outside one, ``heap`` must be given explicitly.
    """
    ctx = _current()
    if ctx is not None:
        return ctx.allocate(value)
    if heap is None:
        raise ValueError("orthrus_new outside a closure requires an explicit heap")
    return OrthrusPtr(heap, heap.allocate(value))


def ptr(obj_id: int) -> OrthrusPtr:
    """Rehydrate a pointer from a stored object id, inside a closure.

    Versioned containers (hash buckets, tree nodes) reference their
    children by object id; data operators turn those ids back into
    pointers against the closure's heap.
    """
    from repro.closures.context import require

    return OrthrusPtr(require().heap, obj_id)


def orthrus_receive(value: Any, checksum: int, heap: VersionedHeap | None = None) -> OrthrusPtr:
    """Materialize an object received from the control path (Figure 3).

    The sender computed ``checksum`` when the object was created; the
    payload may have been corrupted in transit by a control-path CPU error.
    Installing the *transported* CRC (instead of recomputing it) is what
    lets the first data-path load detect the corruption.
    """
    ctx = _current()
    if ctx is not None:
        return ctx.allocate(value, checksum_override=checksum)
    if heap is None:
        raise ValueError("orthrus_receive outside a closure requires an explicit heap")
    return OrthrusPtr(heap, heap.allocate(value, checksum_override=checksum))
