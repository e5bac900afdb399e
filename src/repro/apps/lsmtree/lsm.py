"""LSM-tree data path: versioned skiplist memtable + SSTable closures.

Two tiers, as in the paper's evaluation (§4.2): an in-memory skiplist
(tier 1, the focus of the experiments) and a simplified Sorted String
Table on a block device (tier 2).  The skiplist's nodes are user-data
objects; every put rewrites the forward pointers of its predecessors,
creating several new versions per write — the versioning stress that
yields LSMTree's 34% memory overhead under the 100%-random-write workload.

The disk is an external device: flushes *write* blocks and gets *read*
them through recorded syscalls (§2.3), so validation replays the recorded
results instead of re-touching the device.

Instruction mix: ALU (key compares), FPU (probabilistic level selection —
the fp instructions behind LSMTree's large fp-SDC column in Table 2),
SIMD (vectorized key fingerprints and block checksums), CACHE (coherent
sequence-number/meta updates).
"""

from __future__ import annotations

import random

from repro.closures.annotation import closure
from repro.closures.context import ops, syscall
from repro.closures.syscalls import sys_random
from repro.memory.pointer import OrthrusPtr, orthrus_new
from repro.memory.version import approx_size
from repro.runtime.orthrus import OrthrusRuntime

_FINGERPRINT_LANES = 8
#: skiplist level promotion probability
_P = 0.5

#: tombstone marker: deletes in an LSM are writes of a special value that
#: shadows older versions until compaction drops the key entirely
TOMBSTONE = "\x00__tombstone__"


def _key_lanes(key: int) -> tuple[int, ...]:
    return tuple((key >> (8 * lane)) & 0xFF for lane in range(_FINGERPRINT_LANES))


class LsmTree:
    """Handle to the two-tier store."""

    def __init__(self, runtime: OrthrusRuntime, max_level: int = 4, seed: int = 0):
        self.max_level = max_level
        #: head node: ("head", forwards) — forwards[i] is the first node at
        #: level i, or None
        self.head = runtime.new(("head", (None,) * max_level))
        #: ("meta", seq, count): write sequence number and memtable size
        self.meta = runtime.new(("meta", 0, 0))
        #: tier 2: list of immutable sorted blocks, newest last (external
        #: device, owned by the control path)
        self.disk: list[tuple] = []
        #: ``sum(approx_size(block) for block in disk)``, kept by the only
        #: two writers of ``disk`` (_disk_append, _disk_replace); blocks are
        #: immutable tuples, so their size at write time is their size
        self.disk_bytes = 0
        #: client-side randomness source for level selection (recorded as a
        #: syscall so validation replays it)
        self.rng = random.Random(seed)


def _level_for(o, tree: LsmTree) -> int:
    """Probabilistic level via recorded randomness and FPU compares.

    ``r < P**level`` evaluated with floating-point instructions: the fp
    error surface of this data path.
    """
    r = sys_random(tree.rng)
    level = 1
    threshold = o.fpu.fmul(_P, 1.0)
    while level < tree.max_level:
        diff = o.fpu.fsub(r, threshold)
        if o.alu.lt(0.0, diff):
            break
        level += 1
        threshold = o.fpu.fmul(threshold, _P)
    return level


def _find_predecessors(o, tree: LsmTree, key: int) -> list[OrthrusPtr | None]:
    """Per-level pointers to the node *before* ``key`` (None = head)."""
    preds: list[OrthrusPtr | None] = [None] * tree.max_level
    _, head_forwards = o.cache.load_shared(tree.head.load())
    node_ptr: OrthrusPtr | None = None
    forwards = head_forwards
    for level in range(tree.max_level - 1, -1, -1):
        while forwards[level] is not None:
            candidate = forwards[level]
            _, cand_key, _, _, cand_forwards = o.cache.load_shared(candidate.load())
            if not o.alu.lt(cand_key, key):
                break
            node_ptr = candidate
            forwards = cand_forwards
        preds[level] = node_ptr
    return preds


@closure(name="lsm.put")
def lsm_put(tree: LsmTree, kv_ptr: OrthrusPtr) -> int:
    """Insert/overwrite a key in the memtable; returns the sequence number."""
    o = ops()
    key, value = kv_ptr.load()
    fingerprint = o.simd.vsum(_key_lanes(o.alu.hash64(key)))
    preds = _find_predecessors(o, tree, key)

    # Existing node? (level-0 successor holds the smallest key >= key)
    successor = _forward_of(o, tree, preds[0], 0)
    if successor is not None:
        _, succ_key, _, _, succ_forwards = o.cache.load_shared(successor.load())
        if o.alu.eq(succ_key, key):
            successor.store(
                o.cache.store_shared(("node", key, value, fingerprint, succ_forwards))
            )
            return _bump_meta(o, tree, grew=False)

    level = _level_for(o, tree)
    new_forwards = []
    for lvl in range(tree.max_level):
        if lvl < level:
            new_forwards.append(_forward_of(o, tree, preds[lvl], lvl))
        else:
            new_forwards.append(None)
    node = orthrus_new(("node", key, value, fingerprint, tuple(new_forwards)))
    for lvl in range(level):
        _set_forward(o, tree, preds[lvl], lvl, node)
    return _bump_meta(o, tree, grew=True)


def _forward_of(o, tree: LsmTree, pred: OrthrusPtr | None, level: int):
    if pred is None:
        _, forwards = o.cache.load_shared(tree.head.load())
        return forwards[level]
    _, _, _, _, forwards = o.cache.load_shared(pred.load())
    return forwards[level]


def _set_forward(o, tree: LsmTree, pred: OrthrusPtr | None, level: int, target: OrthrusPtr):
    if pred is None:
        tag, forwards = o.cache.load_shared(tree.head.load())
        updated = forwards[:level] + (target,) + forwards[level + 1 :]
        tree.head.store(o.cache.store_shared((tag, updated)))
        return
    tag, key, value, fingerprint, forwards = o.cache.load_shared(pred.load())
    updated = forwards[:level] + (target,) + forwards[level + 1 :]
    pred.store(o.cache.store_shared((tag, key, value, fingerprint, updated)))


def _bump_meta(o, tree: LsmTree, grew: bool) -> int:
    _, seq, count = o.cache.load_shared(tree.meta.load())
    new_seq = o.alu.add(seq, 1)
    new_count = o.alu.add(count, 1) if grew else count
    tree.meta.store(o.cache.store_shared(("meta", new_seq, new_count)))
    return new_seq


@closure(name="lsm.remove")
def lsm_remove(tree: LsmTree, key_ptr: OrthrusPtr) -> int:
    """Delete a key by writing a tombstone (the LSM deletion idiom): the
    marker shadows older versions in lower tiers until compaction."""
    return lsm_put(tree, key_ptr)


@closure(name="lsm.get")
def lsm_get(tree: LsmTree, key: int):
    """Read a key: memtable first, then SSTable blocks newest-first."""
    o = ops()
    preds = _find_predecessors(o, tree, key)
    successor = _forward_of(o, tree, preds[0], 0)
    if successor is not None:
        _, succ_key, succ_value, _, _ = o.cache.load_shared(successor.load())
        if o.alu.eq(succ_key, key):
            return None if succ_value == TOMBSTONE else succ_value
    # Tier 2: binary-search each block, newest first.  Block reads are
    # device interactions, recorded for replay.
    for index in range(len(tree.disk) - 1, -1, -1):
        block = syscall("disk_read", lambda i=index: tree.disk[i])
        pairs, _checksum = block
        low, high = 0, len(pairs)
        while o.alu.lt(low, high):
            mid = o.alu.shr(o.alu.add(low, high), 1)
            if o.alu.lt(pairs[mid][0], key):
                low = o.alu.add(mid, 1)
            else:
                high = mid
        if low < len(pairs) and o.alu.eq(pairs[low][0], key):
            value = pairs[low][1]
            return None if value == TOMBSTONE else value
    return None


@closure(name="lsm.flush")
def lsm_flush(tree: LsmTree) -> int:
    """Flush the memtable into a new SSTable block; returns pairs written.

    Walks the level-0 chain (already sorted), computes a vectorized block
    checksum, writes the block through a recorded device write, deletes
    the memtable nodes, and resets the head/meta.
    """
    o = ops()
    pairs: list[tuple[int, int]] = []
    nodes: list[OrthrusPtr] = []
    _, forwards = o.cache.load_shared(tree.head.load())
    cursor = forwards[0]
    while cursor is not None:
        _, key, value, _, node_forwards = o.cache.load_shared(cursor.load())
        pairs.append((key, value))
        nodes.append(cursor)
        cursor = node_forwards[0]
    block_checksum = o.simd.vsum(tuple(key & 0xFFFF for key, _ in pairs) or (0,))
    block = (tuple(pairs), block_checksum)
    syscall("disk_write", lambda: _disk_append(tree, block))
    for node in nodes:
        node.delete()
    tree.head.store(o.cache.store_shared(("head", (None,) * tree.max_level)))
    _, seq, _ = o.cache.load_shared(tree.meta.load())
    tree.meta.store(o.cache.store_shared(("meta", seq, 0)))
    # The checksum is part of the returned status so a corrupted block
    # checksum is comparable (the block itself lives on the device, outside
    # the versioned space).
    return (len(pairs), block_checksum)


def _disk_append(tree: LsmTree, block: tuple) -> int:
    tree.disk.append(block)
    tree.disk_bytes += approx_size(block)
    return len(block[0])


@closure(name="lsm.compact")
def lsm_compact(tree: LsmTree) -> int:
    """Merge all SSTable blocks into one (newest value wins); returns the
    merged block size."""
    o = ops()
    blocks = syscall("disk_read_all", lambda: list(tree.disk))
    merged: dict[int, int] = {}
    for pairs, _checksum in blocks:  # oldest → newest
        for key, value in pairs:
            merged[key] = value
    # Compaction is where tombstoned keys finally disappear.
    pairs = tuple(
        (key, value) for key, value in sorted(merged.items()) if value != TOMBSTONE
    )
    block_checksum = o.simd.vsum(tuple(key & 0xFFFF for key, _ in pairs) or (0,))
    syscall("disk_replace", lambda: _disk_replace(tree, (pairs, block_checksum)))
    return (len(pairs), block_checksum)


def _disk_replace(tree: LsmTree, block: tuple) -> int:
    tree.disk.clear()
    tree.disk.append(block)
    tree.disk_bytes = approx_size(block)
    return len(block[0])
