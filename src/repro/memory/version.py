"""Immutable data versions and their visible windows.

Every store through an :class:`~repro.memory.pointer.OrthrusPtr` creates a
new out-of-place version of the object (§3.1).  A version is immutable once
created; its *visible window* (Figure 4) opens at creation and closes when
the next version of the same object is created or the object is deleted.
The reclamation watermark (§3.6) frees versions whose window closed before
the earliest start time of any closure still running or awaiting
validation.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any

from repro.memory.checksum import (
    _MAX_INT_BITS,
    MAX_ITEMS,
    MAX_NESTING,
    MAX_RAW_BYTES,
    _encodes,
    checksum_of,
)

#: Sentinel stored in place of a reclaimed payload so stale accesses fail
#: loudly instead of returning garbage.
RECLAIMED = object()


def approx_size(value: Any) -> int:
    """Cheap recursive estimate of a payload's memory footprint in bytes.

    Used for the memory-overhead accounting of Figs 6/10; it does not need
    to match CPython's allocator exactly, only to be consistent between the
    vanilla baseline and the versioned heap.  A tuple or list sizes its
    exact-type leaves itself and recurses only for what is not one.
    """
    kind = type(value)
    if kind is tuple or kind is list:
        total = 16
        for item in value:
            leaf = type(item)
            if leaf is int:
                total += 8 + item.bit_length() // 8
            elif leaf is str:
                total += 16 + len(item)
            elif item is None or leaf is float:
                total += 8
            elif leaf.__base__ is object and getattr(leaf, "__orthrus_ptr__", False):
                total += 8  # one pointer word
            else:
                total += approx_size(item)
        return total
    if value is None or isinstance(value, bool):
        return 8
    if isinstance(value, int):
        return 8 + value.bit_length() // 8
    if isinstance(value, float):
        return 8
    if isinstance(value, (str, bytes)):
        return 16 + len(value)
    if getattr(value, "__orthrus_ptr__", False):
        return 8  # one pointer word
    if isinstance(value, (tuple, list)):
        return 16 + sum(approx_size(item) for item in value)
    if isinstance(value, dict):
        return 32 + sum(approx_size(k) + approx_size(v) for k, v in value.items())
    if hasattr(value, "__orthrus_payload__"):
        return 16 + approx_size(value.__orthrus_payload__())
    return sys.getsizeof(value)


def footprint(value: Any) -> tuple[int, bool]:
    """``(approx_size(value), sealed(value, pointers=True))``: a sealed
    payload — every payload the applications store — is sized and sealed
    in one walk; any other is sized again by :func:`approx_size`."""
    size = _sealed_size(value, 0)
    if size is None:
        return approx_size(value), False
    return size, True


def _sealed_size(value: Any, depth: int) -> int | None:
    """:func:`approx_size` of a payload :func:`~repro.memory.checksum.sealed`
    with pointers, else ``None``; one container level, shaped as
    ``checksum._sealed``."""
    kind = type(value)
    if kind is tuple:
        if depth >= MAX_NESTING or len(value) > MAX_ITEMS:
            return None
        total = 16
        for item in value:
            leaf = type(item)
            if leaf is int:
                bits = item.bit_length()
                if bits >= _MAX_INT_BITS:
                    return None
                total += 8 + bits // 8
            elif leaf is str:
                if not (item.isascii() and len(item) <= MAX_RAW_BYTES or _encodes(item)):
                    return None
                total += 16 + len(item)
            elif item is None or leaf is float or leaf is bool:
                total += 8
            elif leaf.__base__ is object and getattr(leaf, "__orthrus_ptr__", False):
                total += 8  # one pointer word
            else:
                size = _sealed_size(item, depth + 1)
                if size is None:
                    return None
                total += size
        return total
    if kind is int:
        bits = value.bit_length()
        return 8 + bits // 8 if bits < _MAX_INT_BITS else None
    if kind is str:
        if value.isascii() and len(value) <= MAX_RAW_BYTES or _encodes(value):
            return 16 + len(value)
        return None
    if kind is bytes:
        return 16 + len(value) if len(value) <= MAX_RAW_BYTES else None
    if value is None or kind is float or kind is bool:
        return 8
    if kind.__base__ is object and getattr(kind, "__orthrus_ptr__", False):
        return 8
    return None


#: :attr:`Version.crc` of an intact version: its header CRC is its own
#: payload's, computed when read
INTACT = object()


@dataclass(slots=True)
class Version:
    """One immutable version of a user-data object.

    A version is *intact* when nothing can have changed its payload since
    its header CRC covered it: the payload is :func:`sealed
    <repro.memory.checksum.sealed>` (immutable, exact builtin types) and
    either the heap made it (:meth:`VersionedHeap.store
    <repro.memory.heap.VersionedHeap.store>`, ``allocate`` without an
    override) or it arrived as the sender's own bytes
    (``repro.apps.common.hop``).  The simulator corrupts a payload only in
    transit (a faulty control-path instruction), so an intact version's
    :meth:`probe` passes without serializing it, and its header CRC is
    computed when :attr:`checksum` is read — the payload cannot change, so
    it is the same number whenever it is computed.

    Attributes:
        version_id: globally unique, monotonically increasing.
        obj_id: the object this version belongs to.
        value: the payload (treated as immutable by convention).
        crc: the header CRC field (§3.4) as stored: ``None`` when checksums
            are disabled, :data:`INTACT` for an intact version.
        created_at: visible-window open time.
        superseded_at: visible-window close time (next version created or
            object deleted); ``None`` while this is the live version.
        creator: sequence id of the closure execution that created it, or
            ``None`` for versions created outside any closure.
        size: approximate payload bytes, for memory accounting.
    """

    version_id: int
    obj_id: int
    value: Any
    crc: Any
    created_at: float
    superseded_at: float | None = None
    creator: int | None = None
    size: int = field(default=0)

    @property
    def intact(self) -> bool:
        return self.crc is INTACT

    @property
    def checksum(self) -> int | None:
        """CRC-16 of the payload, stored in the version header (§3.4);
        ``None`` when checksums are disabled."""
        crc = self.crc
        return checksum_of(self.value) if crc is INTACT else crc

    def probe(self) -> bool:
        """The first-load CRC probe (§3.4): does the payload still match
        its header CRC?  An intact version does, without being read; any
        other is serialized and checksummed.  Only a version with a CRC
        (``crc is not None``) is probed."""
        crc = self.crc
        return crc is INTACT or checksum_of(self.value) == crc

    @property
    def live(self) -> bool:
        return self.superseded_at is None

    @property
    def reclaimed(self) -> bool:
        return self.value is RECLAIMED

    def __repr__(self) -> str:
        state = "reclaimed" if self.reclaimed else ("live" if self.live else "stale")
        return f"Version(v{self.version_id}, obj{self.obj_id}, {state})"
