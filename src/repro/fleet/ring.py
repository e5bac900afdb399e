"""Consistent-hash ring sharding the versioned keyspace across the fleet.

The classic token ring (random vnode positions on a circle) has a
well-known flaw at our scale: even with 256 vnodes per shard, the gap
lengths between tokens follow an exponential distribution and per-shard
load spreads by ±20% or worse — a non-starter when each shard's validator
pool is provisioned for its share of the keyspace.  We instead use
*capacity-bounded rendezvous hashing over ring partitions* (the scheme
behind Ceph's straw buckets and envoy's bounded-load ring):

1. The hash space is split into ``partitions`` equal slices (a power of
   two, so ``key_hash % partitions`` is exact); a key's partition never
   changes as shards come and go.
2. Each (partition, shard) pair gets a pseudo-random weight
   ``mix64(partition_token ^ shard_token)``; every partition ranks all
   shards by descending weight (rendezvous / highest-random-weight).
3. Partitions are assigned greedily, in partition order, to the
   highest-ranked shard that still has headroom under a capacity cap of
   ``ceil(partitions / shards * cap_factor)``.

The ranking of step 2 is computed lazily: a partition's first preference
is one ``argmax`` over its row of weights (kept as ``first_choice``), and
the rest of the row matters only if that shard is already full (~3% of
rows at 96 shards): the row then goes to the highest-weight shard with
headroom.  Rows are hashed a block at a time, so no ``partitions x
shards`` matrix is ever resident, and a block in which no first choice can
reach the cap is placed in bulk.

A failover sub-ring (:meth:`ConsistentHashRing.without`) is derived rather
than rebuilt: survivors keep their relative order, so a partition whose
first choice survives keeps it, and only the rows whose first choice left
— about ``1/S`` of them per removed shard — are hashed, over the
survivors.  The capacity pass then runs as in a full build, hashing a
block's rows only where one may overflow.

Properties (enforced by ``tests/fleet/test_ring.py``):

* **balance** — with the default ``cap_factor=1.0`` the cap is exactly
  ``ceil(partitions / shards)`` and total capacity equals demand, so by
  pigeonhole every shard lands in ``[floor, ceil]`` of the mean: balance
  is essentially perfect (far inside the ±15% the tests assert) at every
  fleet size;
* **low remap** — removing a shard re-homes its own ``~1/S`` of the
  keyspace plus a cap-reshuffle cascade measured at ~1% of partitions:
  comfortably under the ``2/N`` remap bound for fleets up to ~64 shards
  (beyond that the cascade floor dominates the shrinking ``2/N`` — the
  measured trade is documented in DESIGN §12);
* **determinism** — weights come from :func:`mix64` over sha256-derived
  tokens, so the map is a pure function of (names, partitions, salt),
  identical across processes and Python versions.

All bulk operations are vectorized: placing 10M keys is one ``%`` and one
fancy-index over a precomputed ``owner_of_partition`` array.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

__all__ = ["mix64", "name_token", "ConsistentHashRing", "DEFAULT_VNODES"]

#: vnodes (ring partitions per shard) used by the fleet topology default
DEFAULT_VNODES = 256

_U64 = np.uint64

#: partition rows hashed (and held) at a time while assigning.  The weight
#: block and mix64's temporaries are ``_BLOCK_ROWS * nodes`` words each, so
#: memory is bounded whatever the grid size, and at 256 rows a 96-node
#: block (192 KB) stays cache-resident through the mixer's passes
#: (measured ~1.6x faster than hashing the same grid in one piece).
_BLOCK_ROWS = 256


def mix64(x: np.ndarray | int) -> np.ndarray | int:
    """splitmix64 finalizer: a cheap, high-quality 64-bit mixer.

    Vectorized over numpy uint64 arrays; scalar ints are handled too (the
    single-key lookup path).  All arithmetic wraps mod 2^64 in ``uint64``,
    so the mixer works in place on one copy of its input.
    """
    scalar = not isinstance(x, np.ndarray)
    z = np.array(x, dtype=_U64)
    with np.errstate(over="ignore"):
        z += _U64(0x9E3779B97F4A7C15)
        z ^= z >> _U64(30)
        z *= _U64(0xBF58476D1CE4E5B9)
        z ^= z >> _U64(27)
        z *= _U64(0x94D049BB133111EB)
        z ^= z >> _U64(31)
    return int(z) if scalar else z


def name_token(name: str, salt: int | str = 0) -> int:
    """A stable 64-bit token for a node name (sha256-based, not ``hash()``
    — the builtin is randomized per process and would break determinism
    across fleet workers)."""
    digest = hashlib.sha256(f"{salt}/{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class _BlockWeights:
    """A derived ring's weight rows for one block, hashed on demand.

    A row can overflow only once its first choice is at the cap, and a
    node reaches the cap inside the block mostly through its own first
    choices: the rows of those nodes are hashed together up front, any
    other row (pushed over by an earlier overflow's re-homing) alone."""

    def __init__(self, part_tokens, node_tokens, block, after, cap):
        self.part_tokens = part_tokens
        self.node_tokens = node_tokens
        rows = np.flatnonzero(after[block] > cap)
        self.rows = dict(zip(rows.tolist(), mix64(part_tokens[rows, None] ^ node_tokens)))

    def __getitem__(self, row: int) -> np.ndarray:
        weights = self.rows.get(row)
        if weights is None:
            weights = mix64(self.part_tokens[row] ^ self.node_tokens)
        return weights


def _place_block(block: list[int], weights, loads: np.ndarray, cap: int) -> list[int]:
    """The greedy capacity pass over one block, row by row: a row takes
    its first choice while it has room, else the highest-weight node that
    still has room (lowest index among ties — the node a stable descending
    ranking of the row would reach first).  ``weights[row]`` is the row's
    weight vector; updates ``loads`` in place."""
    counts = loads.tolist()
    open_nodes = None
    for row, choice in enumerate(block):
        if counts[choice] >= cap:
            if open_nodes is None:
                open_nodes = np.flatnonzero(np.asarray(counts) < cap)
            choice = int(open_nodes[weights[row][open_nodes].argmax()])
            block[row] = choice
        counts[choice] += 1
        if counts[choice] == cap:
            open_nodes = None
    loads[:] = counts
    return block


class ConsistentHashRing:
    """Capacity-bounded rendezvous assignment of ring partitions to nodes.

    ``nodes`` are shard names (order-insensitive: assignment depends only
    on the name set).  ``partitions`` defaults to the next power of two
    ≥ ``len(nodes) * vnodes``; pass it explicitly when comparing rings
    across membership changes, otherwise the partition grid itself moves.
    ``_base`` is :meth:`without`'s: a ring on the same grid and salt whose
    nodes include these, to derive the first choices from.
    """

    def __init__(
        self,
        nodes,
        vnodes: int = DEFAULT_VNODES,
        partitions: int | None = None,
        salt: int | str = 0,
        cap_factor: float = 1.0,
        *,
        _base: "ConsistentHashRing | None" = None,
    ):
        names = sorted(set(nodes))
        if not names:
            raise ValueError("ring needs at least one node")
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        if cap_factor < 1.0:
            raise ValueError("cap_factor must be >= 1.0")
        if partitions is None:
            partitions = 1 << max(1, math.ceil(math.log2(len(names) * vnodes)))
        if partitions < len(names):
            raise ValueError("need at least one partition per node")
        if partitions & (partitions - 1):
            raise ValueError("partitions must be a power of two")
        self.nodes: tuple[str, ...] = tuple(names)
        self.vnodes = vnodes
        self.partitions = partitions
        self.salt = salt
        self.cap_factor = cap_factor
        self.capacity = math.ceil(partitions / len(names) * cap_factor)
        #: each partition's highest-weight node (index into ``nodes``),
        #: before the capacity cap; what :meth:`without` derives from
        self.first_choice = np.empty(partitions, dtype=np.int32)
        self.owner_of_partition = self._assign_partitions(_base)

    def _assign_partitions(self, base: "ConsistentHashRing | None") -> np.ndarray:
        part_tokens = mix64(np.arange(self.partitions, dtype=_U64))
        node_tokens = np.array(
            [name_token(name, self.salt) for name in self.nodes], dtype=_U64
        )
        first = self.first_choice
        if base is not None:
            self._derive_first_choices(base, part_tokens, node_tokens)
        cap = self.capacity
        loads = np.zeros(len(self.nodes), dtype=np.int64)
        owner = np.empty(self.partitions, dtype=np.int32)
        for start in range(0, self.partitions, _BLOCK_ROWS):
            stop = start + _BLOCK_ROWS
            weights = None
            if base is None:
                weights = mix64(part_tokens[start:stop, None] ^ node_tokens)
                # argmax returns the first maximum: the lowest node index
                # among equal weights.
                first[start:stop] = weights.argmax(axis=1)
            block = first[start:stop]
            after = np.bincount(block, minlength=len(self.nodes)) + loads
            if after.max() <= cap:
                # Every row's first choice has room even after the whole
                # block lands: no row of it can overflow.
                owner[start:stop] = block
                loads = after
                continue
            if weights is None:
                weights = _BlockWeights(part_tokens[start:stop], node_tokens, block, after, cap)
            owner[start:stop] = _place_block(block.tolist(), weights, loads, cap)
        return owner

    def _derive_first_choices(self, base, part_tokens, node_tokens) -> None:
        """First choices of a ring on a subset of ``base``'s nodes.

        The survivors keep their relative order, so where ``base``'s first
        choice survives it is still the argmax, lowest index among ties.
        Only the rows whose first choice left are hashed, over the
        survivors."""
        index = np.full(len(base.nodes), -1, dtype=np.int32)
        index[[base.nodes.index(name) for name in self.nodes]] = np.arange(
            len(self.nodes), dtype=np.int32
        )
        first = self.first_choice
        np.take(index, base.first_choice, out=first)
        moved = np.flatnonzero(first < 0)
        for start in range(0, len(moved), _BLOCK_ROWS):
            rows = moved[start:start + _BLOCK_ROWS]
            first[rows] = mix64(part_tokens[rows, None] ^ node_tokens).argmax(axis=1)

    # -- lookups ---------------------------------------------------------
    def partition_of(self, key_hashes: np.ndarray | int):
        """Key hash(es) → partition index(es); stable across membership."""
        if isinstance(key_hashes, np.ndarray):
            return (key_hashes.astype(_U64) % _U64(self.partitions)).astype(np.int64)
        return int(key_hashes) % self.partitions

    def assign(self, key_hashes: np.ndarray) -> np.ndarray:
        """Bulk placement: uint64 key hashes → node indices (vectorized)."""
        return self.owner_of_partition[self.partition_of(key_hashes)]

    def lookup(self, key_hash: int) -> str:
        return self.nodes[int(self.owner_of_partition[self.partition_of(key_hash)])]

    def partition_counts(self) -> np.ndarray:
        """Partitions owned per node (index-aligned with ``nodes``)."""
        return np.bincount(self.owner_of_partition, minlength=len(self.nodes))

    def load_spread(self) -> tuple[float, float]:
        """(min, max) per-node partition share relative to the mean — the
        balance numbers the ±15% property test checks."""
        counts = self.partition_counts().astype(float)
        mean = counts.mean()
        return float(counts.min() / mean - 1.0), float(counts.max() / mean - 1.0)

    # -- membership changes ----------------------------------------------
    def without(self, *removed: str) -> "ConsistentHashRing":
        """The ring after quarantining nodes out (same partition grid).

        Derived from this ring's first choices: only the partitions whose
        first choice left are re-ranked, and the capacity pass then runs
        exactly as a full build's would (DESIGN §12.1)."""
        gone = set(removed)
        unknown = sorted(gone.difference(self.nodes))
        if unknown:
            raise ValueError(f"not on the ring: {', '.join(unknown)}")
        return ConsistentHashRing(
            [n for n in self.nodes if n not in gone],
            vnodes=self.vnodes,
            partitions=self.partitions,
            salt=self.salt,
            cap_factor=self.cap_factor,
            _base=self,
        )

    def with_nodes(self, *added: str) -> "ConsistentHashRing":
        """The ring after adding nodes (same partition grid; a full
        rebuild, since a new node can be any partition's first choice)."""
        clashes = sorted(
            {n for n in added if n in self.nodes or added.count(n) > 1}
        )
        if clashes:
            raise ValueError(f"already on the ring or named twice: {', '.join(clashes)}")
        return ConsistentHashRing(
            list(self.nodes) + list(added),
            vnodes=self.vnodes,
            partitions=self.partitions,
            salt=self.salt,
            cap_factor=self.cap_factor,
        )

    def remap_fraction(self, other: "ConsistentHashRing") -> float:
        """Fraction of the keyspace whose owning *node name* differs
        between two rings on the same partition grid.  Partitions are
        equal slices of the hash space (power-of-two modulus), so the
        partition fraction is the key fraction."""
        if other.partitions != self.partitions:
            raise ValueError("rings must share a partition grid to compare")
        mine = np.asarray(self.nodes, dtype=object)[self.owner_of_partition]
        theirs = np.asarray(other.nodes, dtype=object)[other.owner_of_partition]
        return float(np.mean(mine != theirs))
