"""Memcached control path: request parsing, dispatch, and response.

The control path mirrors Listing 3's server side: requests arrive as
packets, the command token is parsed and compared with control-path
instructions (``drive_machine`` → ``process_command_ascii``), and the
matching data operator is invoked.  Faults in this code can:

* corrupt a payload in transit → caught by the CRC probe at the first
  data-path load (Figure 3);
* corrupt the response in transit → caught by the client-side CRC check;
* flip a dispatch comparison so the wrong operator runs → *not* caught by
  Orthrus (§2.3, limitation 3) but caught by RBV's full re-execution.
"""

from __future__ import annotations

import hashlib
from typing import Any

from repro.apps.common import AppServer
from repro.apps.memcached.storage import HashTable, mc_get, mc_incr, mc_remove, mc_set
from repro.machine.core import Core
from repro.memory.checksum import serialize
from repro.runtime.orthrus import OrthrusRuntime
from repro.workloads.base import Op


class MemcachedServer(AppServer):
    """An in-memory object cache with an Orthrus-protected data path."""

    externalizing = frozenset({"mc.get"})

    def __init__(self, runtime: OrthrusRuntime, n_buckets: int = 64):
        super().__init__(runtime)
        self.table = HashTable(runtime, n_buckets)

    # ------------------------------------------------------------------
    def _handle(self, op: Op) -> Any:
        """Process one client operation end to end (control + data path)."""
        core = self.runtime.current_core()
        command = self._dispatch(core, self._parse_token(core, op.kind.value))
        if command == "set":
            kv_ptr = self.receive(core, (op.key, op.value), "mc.control.rx")
            mc_set(self.table, kv_ptr)
            kv_ptr.delete()  # free the request buffer (its version stays
            # readable until the closure's validation window closes)
            return "STORED"
        if command == "get":
            value = mc_get(self.table, op.key)
            return self.respond(core, value, "mc.control.tx")
        if command == "remove":
            removed = mc_remove(self.table, op.key)
            return "DELETED" if removed else "NOT_FOUND"
        if command == "incr":
            value = mc_incr(self.table, op.key, int(op.value or 1))
            return self.respond(core, value, "mc.control.tx")
        raise ValueError(f"unknown command {command!r}")

    def _dispatch(self, core: Core, token: str) -> str:
        """``process_command_ascii``: one compare instruction per command.

        Each comparison is a distinct instruction site, so a fault pinned
        to one of them silently redirects exactly one command type to the
        wrong operator — e.g. GETs falling through to REMOVE (silent data
        loss, invisible to checksums; §2.3 limitation 3).
        """
        with core.scope("mc.control.dispatch"):
            for command in ("set", "get", "remove", "incr"):
                if core.alu.eq(token, command):
                    return command
        return "?"

    def _parse_token(self, core: Core, kind: str) -> str:
        """ASCII command parsing (``try_read_command_ascii``): the token
        bytes move through a control-path copy instruction."""
        with core.scope("mc.control.parse"):
            raw = core.alu.copy(kind.encode("ascii"))
        return raw.decode("ascii", errors="replace")

    # ------------------------------------------------------------------
    def state_digest(self) -> int:
        """Ground-truth digest of the cache contents (pure Python).

        Structure-sensitive: the digest covers *which bucket* each item
        sits in, so a mis-hashed insert (Listing 2's never-retrievable
        item) diverges even when the flat key/value multiset matches.
        """
        heap = self.runtime.heap
        layout = []
        for index, bucket in enumerate(self.table.buckets):
            chain = []
            for entry in heap.latest(bucket.obj_id).value:
                if heap.exists(entry.obj_id):
                    key, value, digest = heap.latest(entry.obj_id).value
                    chain.append((key, value, digest))
            if chain:
                layout.append((index, tuple(sorted(chain))))
        payload = serialize(tuple(layout))
        return int.from_bytes(hashlib.sha1(payload).digest()[:8], "little")

    def items(self) -> dict[str, str]:
        """Plain-Python view of live cache contents (tests/examples)."""
        out = {}
        heap = self.runtime.heap
        for bucket in self.table.buckets:
            for entry in heap.latest(bucket.obj_id).value:
                if heap.exists(entry.obj_id):
                    key, value, _ = heap.latest(entry.obj_id).value
                    out[key] = value
        return out
