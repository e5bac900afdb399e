"""Memcached data path: a versioned hash table and its operators.

Mirrors Listing 3's split: the operators below (`set`, `get`, `remove`,
`incr`) are the *entire* data path — the only code that touches user data —
and each is an annotated closure.  The hash table lives in versioned
memory: each bucket is a user-data object holding a tuple of item pointers,
and each item is a ``(key, value)`` payload.

Instruction mix (drives Table 2's per-unit SDC columns for Memcached):
ALU (hashing, masking, key compare), SIMD (vectorized value digest — the
SSE memcpy/memcmp of real memcached), CACHE (coherent bucket/item access
under item locks).  No floating point, matching the paper's Memcached
fp-SDC count of zero.
"""

from __future__ import annotations

from repro.closures.annotation import closure
from repro.closures.context import ops
from repro.memory.pointer import OrthrusPtr, orthrus_new
from repro.runtime.orthrus import OrthrusRuntime

#: lanes used for the vectorized value digest
_DIGEST_LANES = 8


def _value_lanes(value: str) -> tuple[int, ...]:
    """Fixed-width lane view of a value, as a vector unit would see it."""
    codes = [ord(ch) for ch in value[:_DIGEST_LANES]]
    codes.extend([0] * (_DIGEST_LANES - len(codes)))
    return tuple(codes)


class HashTable:
    """A power-of-two-bucket hash table in versioned memory."""

    def __init__(self, runtime: OrthrusRuntime, n_buckets: int = 64):
        if n_buckets & (n_buckets - 1):
            raise ValueError("n_buckets must be a power of two")
        self.mask = n_buckets - 1
        #: bucket objects, allocated at startup (control-path setup)
        self.buckets: list[OrthrusPtr] = [runtime.new(()) for _ in range(n_buckets)]


@closure(name="mc.set")
def mc_set(table: HashTable, kv_ptr: OrthrusPtr):
    """Insert or update a key — Listing 3's ``set`` operator.

    The first ``kv_ptr.load()`` verifies the CRC that travelled with the
    payload through the control path (Figure 3).
    """
    o = ops()
    key, value = kv_ptr.load()
    hashed = o.alu.hash64(key)
    index = o.alu.and_(hashed, table.mask)
    bucket = table.buckets[index]
    entries = o.cache.load_shared(bucket.load())
    digest = o.simd.vsum(_value_lanes(value))
    for entry in entries:
        entry_key, _, _ = o.cache.load_shared(entry.load())
        if o.alu.eq(entry_key, key):
            entry.store(o.cache.store_shared((key, value, digest)))
            return entry
    item = orthrus_new((key, value, digest))
    bucket.store(o.cache.store_shared((item,) + entries))
    return item


@closure(name="mc.get")
def mc_get(table: HashTable, key: str):
    """Lookup — the externalizing operator (its result reaches the client).

    Pure ALU + cache-coherency instructions: the vectorized digest is
    produced on the write path only, so (as in the real codebase) the hot
    read path carries no fp/vector instructions and is *not* tagged
    error-prone by the compiler (§3.5).
    """
    o = ops()
    hashed = o.alu.hash64(key)
    index = o.alu.and_(hashed, table.mask)
    bucket = table.buckets[index]
    entries = o.cache.load_shared(bucket.load())
    for entry in entries:
        entry_key, entry_value, _digest = o.cache.load_shared(entry.load())
        if o.alu.eq(entry_key, key):
            return entry_value
    return None


@closure(name="mc.remove")
def mc_remove(table: HashTable, key: str) -> bool:
    """Delete a key — frees the item and rewrites the bucket chain."""
    o = ops()
    hashed = o.alu.hash64(key)
    index = o.alu.and_(hashed, table.mask)
    bucket = table.buckets[index]
    entries = o.cache.load_shared(bucket.load())
    for position, entry in enumerate(entries):
        entry_key, _, _ = o.cache.load_shared(entry.load())
        if o.alu.eq(entry_key, key):
            remaining = entries[:position] + entries[position + 1 :]
            bucket.store(o.cache.store_shared(remaining))
            entry.delete()
            return True
    return False


@closure(name="mc.incr")
def mc_incr(table: HashTable, key: str, delta: int):
    """Arithmetic update of a counter value (memcached ``incr``)."""
    o = ops()
    hashed = o.alu.hash64(key)
    index = o.alu.and_(hashed, table.mask)
    bucket = table.buckets[index]
    entries = o.cache.load_shared(bucket.load())
    for entry in entries:
        entry_key, entry_value, _ = o.cache.load_shared(entry.load())
        if o.alu.eq(entry_key, key):
            new_value = str(o.alu.add(int(entry_value), delta))
            digest = o.simd.vsum(_value_lanes(new_value))
            entry.store(o.cache.store_shared((key, new_value, digest)))
            return new_value
    return None
