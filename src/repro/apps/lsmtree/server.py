"""LSMTree control path: put/get dispatch, flush/compaction policy."""

from __future__ import annotations

import hashlib
from typing import Any

from repro.apps.common import AppServer
from repro.apps.lsmtree.lsm import (
    TOMBSTONE,
    LsmTree,
    lsm_compact,
    lsm_flush,
    lsm_get,
    lsm_put,
    lsm_remove,
)
from repro.memory.checksum import serialize
from repro.runtime.orthrus import OrthrusRuntime
from repro.workloads.base import Op


class LsmTreeServer(AppServer):
    """Write-optimized store (YCSB 100%-random-write workload)."""

    externalizing = frozenset({"lsm.get"})

    def __init__(
        self,
        runtime: OrthrusRuntime,
        max_level: int = 4,
        memtable_limit: int = 256,
        compaction_threshold: int = 4,
        seed: int = 0,
    ):
        super().__init__(runtime)
        self.tree = LsmTree(runtime, max_level=max_level, seed=seed)
        self.memtable_limit = memtable_limit
        self.compaction_threshold = compaction_threshold
        self.flushes = 0
        self.compactions = 0

    def _handle(self, op: Op) -> Any:
        command = self._dispatch(op.kind.value)
        if command == "put":
            kv_ptr = self.receive((op.key, op.value), "lsm.control.rx")
            lsm_put(self.tree, kv_ptr)
            kv_ptr.delete()  # free the request buffer
            self._maybe_flush()
            # The internal sequence number is not externalized: under
            # multiple server threads its assignment order depends on
            # scheduling, not on user data.
            return "STORED"
        if command == "get":
            value = lsm_get(self.tree, op.key)
            return self.respond(value, "lsm.control.tx")
        if command == "remove":
            key_ptr = self.receive((op.key, TOMBSTONE), "lsm.control.rx")
            lsm_remove(self.tree, key_ptr)
            key_ptr.delete()  # free the request buffer
            self._maybe_flush()
            return "DELETED"
        raise ValueError(f"unknown command {command!r}")

    def _dispatch(self, token: str) -> str:
        core = self._core()
        with core.scope("lsm.control.dispatch"):
            for command in ("put", "get", "remove"):
                if core.alu.eq(token, command):
                    return command
        return "?"

    def _maybe_flush(self) -> None:
        """Flush/compaction policy: control-path decision over the meta
        object (an unmanaged read — the policy itself is not validated)."""
        _, _, count = self.runtime.heap.latest(self.tree.meta.obj_id).value
        if count >= self.memtable_limit:
            lsm_flush(self.tree)
            self.flushes += 1
            if len(self.tree.disk) >= self.compaction_threshold:
                lsm_compact(self.tree)
                self.compactions += 1

    # ------------------------------------------------------------------
    def items(self) -> dict[int, Any]:
        """Effective contents: disk blocks oldest→newest, then memtable."""
        merged: dict[int, Any] = {}
        for pairs, _checksum in self.tree.disk:
            for key, value in pairs:
                merged[key] = value
        heap = self.runtime.heap
        _, forwards = heap.latest(self.tree.head.obj_id).value
        cursor = forwards[0]
        while cursor is not None:
            _, key, value, _, node_forwards = heap.latest(cursor.obj_id).value
            merged[key] = value
            cursor = node_forwards[0]
        return {k: v for k, v in merged.items() if v != TOMBSTONE}

    def resident_bytes_extra(self) -> int:
        """Bytes of the tier-2 SSTable buffer (outside the versioned heap)
        — part of the application's resident footprint in both the vanilla
        and the Orthrus deployment.  Read per request by the drivers'
        memory tracking, so it is the tree's running total, not a walk."""
        return self.tree.disk_bytes

    def state_digest(self) -> int:
        """Structure-sensitive digest: disk blocks plus the memtable chain
        including each node's tower height, so a corrupted skiplist level
        (wrong linkage that will misroute future lookups) diverges even
        when the flat key/value view coincides."""
        heap = self.runtime.heap
        chain = []
        _, forwards = heap.latest(self.tree.head.obj_id).value
        cursor = forwards[0]
        while cursor is not None:
            _, key, value, fingerprint, node_forwards = heap.latest(
                cursor.obj_id
            ).value
            height = sum(1 for f in node_forwards if f is not None)
            chain.append((key, value, fingerprint, height))
            cursor = node_forwards[0]
        payload = serialize((tuple(self.tree.disk), tuple(chain)))
        return int.from_bytes(hashlib.sha1(payload).digest()[:8], "little")
