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
is one ``argmax`` over its row of weights, and the row is sorted only if
that shard is already full (~3% of rows at 96 shards).  Rows are hashed a
block at a time, so no ``partitions x shards`` matrix is ever resident.

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
_MASK = _U64(0xFFFFFFFFFFFFFFFF)

#: partition rows hashed (and held) at a time while assigning.  The weight
#: block and mix64's temporaries are ``_BLOCK_ROWS * nodes`` words each, so
#: memory is bounded whatever the grid size, and at 256 rows a 96-node
#: block (192 KB) stays cache-resident through the mixer's passes
#: (measured ~1.6x faster than hashing the same grid in one piece).
_BLOCK_ROWS = 256


def mix64(x: np.ndarray | int) -> np.ndarray | int:
    """splitmix64 finalizer: a cheap, high-quality 64-bit mixer.

    Vectorized over numpy uint64 arrays; scalar ints are handled too (the
    single-key lookup path).  All arithmetic is mod 2^64.
    """
    scalar = not isinstance(x, np.ndarray)
    z = np.asarray(x, dtype=_U64)
    with np.errstate(over="ignore"):
        z = (z + _U64(0x9E3779B97F4A7C15)) & _MASK
        z = ((z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)) & _MASK
        z = ((z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)) & _MASK
        z = z ^ (z >> _U64(31))
    return int(z) if scalar else z


def name_token(name: str, salt: int | str = 0) -> int:
    """A stable 64-bit token for a node name (sha256-based, not ``hash()``
    — the builtin is randomized per process and would break determinism
    across fleet workers)."""
    digest = hashlib.sha256(f"{salt}/{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class ConsistentHashRing:
    """Capacity-bounded rendezvous assignment of ring partitions to nodes.

    ``nodes`` are shard names (order-insensitive: assignment depends only
    on the name set).  ``partitions`` defaults to the next power of two
    ≥ ``len(nodes) * vnodes``; pass it explicitly when comparing rings
    across membership changes, otherwise the partition grid itself moves.
    """

    def __init__(
        self,
        nodes,
        vnodes: int = DEFAULT_VNODES,
        partitions: int | None = None,
        salt: int | str = 0,
        cap_factor: float = 1.0,
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
        self.owner_of_partition = self._assign_partitions()

    def _assign_partitions(self) -> np.ndarray:
        part_tokens = mix64(np.arange(self.partitions, dtype=_U64))
        node_tokens = np.array(
            [name_token(name, self.salt) for name in self.nodes], dtype=_U64
        )
        loads = [0] * len(self.nodes)
        owner = np.empty(self.partitions, dtype=np.int32)
        cap = self.capacity
        for start in range(0, self.partitions, _BLOCK_ROWS):
            weights = mix64(
                part_tokens[start:start + _BLOCK_ROWS, None] ^ node_tokens[None, :]
            )
            # First preference: argmax returns the first maximum, i.e. the
            # lowest node index among equal weights.
            assigned = weights.argmax(axis=1).tolist()
            for row, choice in enumerate(assigned):
                if loads[choice] >= cap:
                    # Overflow: rank this one row.  ``~w`` inverts the
                    # order monotonically so a *stable* ascending argsort
                    # yields descending weights with index-order
                    # tie-breaking — the same node argmax puts first.
                    for choice in np.argsort(~weights[row], kind="stable").tolist():
                        if loads[choice] < cap:
                            break
                    assigned[row] = choice
                loads[choice] += 1
            owner[start:start + len(assigned)] = assigned
        return owner

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
        """The ring after quarantining nodes out (same partition grid)."""
        remaining = [n for n in self.nodes if n not in set(removed)]
        return ConsistentHashRing(
            remaining,
            vnodes=self.vnodes,
            partitions=self.partitions,
            salt=self.salt,
            cap_factor=self.cap_factor,
        )

    def with_nodes(self, *added: str) -> "ConsistentHashRing":
        """The ring after adding nodes (same partition grid)."""
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
