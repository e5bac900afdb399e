"""Masstree control path: request dispatch, response transport."""

from __future__ import annotations

import hashlib
from typing import Any

from repro.apps.common import AppServer
from repro.apps.masstree.tree import Masstree, mt_get, mt_scan, mt_update
from repro.memory.checksum import serialize
from repro.runtime.orthrus import OrthrusRuntime
from repro.workloads.base import Op


class MasstreeServer(AppServer):
    """Ordered key-value store with scan/update mix (ALEX workload)."""

    externalizing = frozenset({"mt.get", "mt.scan"})

    def __init__(self, runtime: OrthrusRuntime, order: int = 8):
        super().__init__(runtime)
        self.tree = Masstree(runtime, order=order)

    def load_keys(self, keys: list[int]) -> None:
        """Bulk pre-load before the timed run (control-path setup)."""
        with self.runtime:
            for key in keys:
                mt_update(self.tree, self.runtime.new((key, key * 2 + 1)))

    def _handle(self, op: Op) -> Any:
        command = self._dispatch(op.kind.value)
        if command == "update":
            kv_ptr = self.receive((op.key, op.value), "mt.control.rx")
            mt_update(self.tree, kv_ptr)
            kv_ptr.delete()  # free the request buffer
            return "STORED"
        if command == "scan":
            results = mt_scan(self.tree, op.key, op.count)
            return self.respond(results, "mt.control.tx")
        if command == "get":
            value = mt_get(self.tree, op.key)
            return self.respond(value, "mt.control.tx")
        raise ValueError(f"unknown command {command!r}")

    def _dispatch(self, token: str) -> str:
        core = self._core()
        with core.scope("mt.control.dispatch"):
            for command in ("update", "scan", "get"):
                if core.alu.eq(token, command):
                    return command
        return "?"

    # ------------------------------------------------------------------
    def state_digest(self) -> int:
        payload = serialize(tuple(self.items()))
        return int.from_bytes(hashlib.sha1(payload).digest()[:8], "little")

    def items(self) -> list[tuple[int, int]]:
        """In-order (key, value) pairs, read outside the machine."""
        heap = self.runtime.heap
        _, root = heap.latest(self.tree.root_holder.obj_id).value
        node = heap.latest(root.obj_id).value
        while node[0] == "inner":
            node = heap.latest(node[2][0].obj_id).value
        out: list[tuple[int, int]] = []
        while True:
            _, keys, values, next_leaf = node
            out.extend(zip(keys, values))
            if next_leaf is None:
                break
            node = heap.latest(next_leaf.obj_id).value
        return out
