"""Execution contexts: binding a closure run to a core, a heap, and a log.

Two modes exist, mirroring Figure 2:

* **APP** — the original execution.  Stores create versions in the shared
  user-data space, first loads pin input versions into the closure log and
  verify the header CRC (control-path integrity, §3.4), and system-call
  results are recorded.
* **VAL** — re-execution by the validator on a *different core*.  Loads
  read the versions pinned by the log (or, for objects the original run
  never touched, the snapshot visible at the closure's start time); stores
  land in the validator's private heap; system calls are replayed from the
  log instead of executed (§3.3).

The active context is tracked per-thread; Orthrus primitives
(:class:`~repro.memory.pointer.OrthrusPtr`, ``ops()``, ``syscall()``) look
it up implicitly, the way the compiled-in runtime calls do in the C++
implementation.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.detection import DetectionEvent
from repro.errors import ChecksumMismatch, NoActiveContext
from repro.machine.core import Core
from repro.machine.instruction import Trace
from repro.memory.heap import PrivateHeap, VersionedHeap
from repro.memory.pointer import OrthrusPtr
from repro.obs.observability import NULL_OBS
from repro.closures.log import ClosureLog


class _ContextStack(threading.local):
    """Per-thread stack of executing contexts; every thread starts with
    its own empty one, so reading it never needs a default."""

    def __init__(self):
        self.stack: list[ExecutionContext] = []


_tls = _ContextStack()


def current() -> "ExecutionContext | None":
    """The context of the closure executing on this thread, if any."""
    stack = _tls.stack
    return stack[-1] if stack else None


def require() -> "ExecutionContext":
    ctx = current()
    if ctx is None:
        raise NoActiveContext("no closure is executing on this thread")
    return ctx


def ops() -> Core:
    """The core the current closure is executing on.

    Data-path code issues its instructions through this handle, e.g.
    ``ops().alu.hash64(key)`` — the Python analogue of code the Orthrus
    compiler lowered onto a specific core's functional units.
    """
    return require().core


def canonicalize_ptrs(value: Any, canon: Callable[[int], Any]) -> Any:
    """``repro.validation.comparator.canonicalize_ptrs``, imported on the
    first call.

    ``repro.validation`` imports this module, so the import cannot sit at
    module level; the first call rebinds this name to the real function and
    later calls pay no import (as ``memory.pointer._current`` does).
    """
    global canonicalize_ptrs
    from repro.validation.comparator import canonicalize_ptrs

    return canonicalize_ptrs(value, canon)


def syscall(name: str, fn: Callable[[], Any]) -> Any:
    """Execute (APP) or replay (VAL) a non-deterministic call (§2.3).

    In APP mode ``fn`` runs and its result is recorded in the closure log;
    in VAL mode the recorded result is returned without executing ``fn`` —
    Orthrus never re-executes system calls.
    """
    return require().syscall(name, fn)


class ExecutionContext:
    """State for one closure execution (APP) or re-execution (VAL)."""

    APP = "app"
    VAL = "val"

    __slots__ = (
        "mode", "core", "heap", "log", "private", "verify_checksums", "detector",
        "record_sites", "obs", "_verified", "_alloc_positions", "_syscall_cursor",
        "trace",
    )

    def __init__(
        self,
        mode: str,
        core: Core,
        heap: VersionedHeap,
        log: ClosureLog,
        private: PrivateHeap | None = None,
        verify_checksums: bool = True,
        detector: Callable[[DetectionEvent], None] | None = None,
        record_sites: bool = False,
        obs=None,
    ):
        if mode not in (self.APP, self.VAL):
            raise ValueError(f"unknown context mode {mode!r}")
        if mode == self.VAL and private is None:
            private = PrivateHeap()
        self.mode = mode
        self.core = core
        self.heap = heap
        self.log = log
        self.private = private
        self.verify_checksums = verify_checksums
        self.detector = detector
        self.record_sites = record_sites
        self.obs = obs if obs is not None else NULL_OBS
        self._verified: set[int] = set()
        self._alloc_positions: dict[int, int] = {}
        self._syscall_cursor = 0
        #: instruction trace, available after the context exits
        self.trace: Trace | None = None

    # ------------------------------------------------------------------
    # scoping
    # ------------------------------------------------------------------
    def __enter__(self) -> "ExecutionContext":
        _tls.stack.append(self)
        trace = Trace(record_sites=self.record_sites)
        self.core.begin(self.log.closure_name, trace)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _tls.stack.pop()
        self.trace = self.core.end()
        if self.mode == self.APP:
            self.log.trace = self.trace

    # ------------------------------------------------------------------
    # pointer operations
    # ------------------------------------------------------------------
    def allocate(self, value: Any, checksum_override: int | None = None):
        if self.mode == self.APP:
            obj_id = self.heap.allocate(
                value, creator=self.log.seq, checksum_override=checksum_override
            )
            self.log.allocated.append(obj_id)
            version = self.heap.latest(obj_id)
            self.log.output_versions.append(version.version_id)
            if checksum_override is None:
                # Objects created inside the closure need no checksum probe
                # on first load — they never crossed the control path.  An
                # object materialized from the network (override set) keeps
                # its transported CRC and *must* be probed (Figure 3).
                self._verified.add(obj_id)
        else:
            obj_id = self.private.allocate(value)
        self._alloc_positions[obj_id] = len(self._alloc_positions)
        return OrthrusPtr(self.heap, obj_id)

    def load(self, obj_id: int) -> Any:
        if self.mode == self.APP:
            version = self.heap.latest(obj_id)
            self.log.inputs.setdefault(obj_id, version.version_id)
            # ``crc`` is the stored field: reading ``checksum`` would
            # compute an intact version's CRC, which the probe never needs
            if (
                self.verify_checksums
                and obj_id not in self._verified
                and version.crc is not None
            ):
                self._verified.add(obj_id)
                ok = version.probe()
                self.obs.lifecycle.checksum_verified(
                    self.log, obj_id, version.version_id, ok
                )
                if not ok:
                    self._detect_checksum(obj_id, version.version_id)
            return version.value
        # VAL: own writes win, then the pinned input version, then the
        # snapshot visible when the closure started.
        if self.private.has(obj_id):
            return self.private.load(obj_id)
        version_id = self.log.inputs.get(obj_id)
        if version_id is not None:
            return self.heap.version(version_id).value
        return self.heap.visible_at(obj_id, self.log.start_time).value

    def store(self, obj_id: int, value: Any) -> None:
        if self.mode == self.APP:
            version = self.heap.store(obj_id, value, creator=self.log.seq)
            self.log.output_versions.append(version.version_id)
            self._verified.add(obj_id)
        else:
            self.private.store(obj_id, value)

    def delete(self, obj_id: int) -> None:
        if self.mode == self.APP:
            self.heap.delete(obj_id)
            self.log.deletes.append(obj_id)
        else:
            self.private.delete(obj_id)

    def _detect_checksum(self, obj_id: int, version_id: int) -> None:
        event = DetectionEvent(
            kind="checksum",
            closure=self.log.closure_name,
            seq=self.log.seq,
            time=self.log.start_time,
            detail=f"CRC mismatch on obj {obj_id} (version {version_id})",
            app_core=self.core.core_id,
        )
        if self.detector is not None:
            self.detector(event)
        else:
            raise ChecksumMismatch(event.detail, closure=self.log.closure_name)

    # ------------------------------------------------------------------
    # system calls
    # ------------------------------------------------------------------
    def syscall(self, name: str, fn: Callable[[], Any]) -> Any:
        if self.mode == self.APP:
            result = fn()
            self.log.syscalls.append(result)
            return result
        cursor = self._syscall_cursor
        if cursor >= len(self.log.syscalls):
            # The re-execution issued more syscalls than the original —
            # control flow diverged inside the closure.  Return a neutral
            # value; the output comparison will flag the divergence.
            return None
        self._syscall_cursor = cursor + 1
        return self.log.syscalls[cursor]

    # ------------------------------------------------------------------
    # canonicalization (for retval comparison across APP/VAL)
    # ------------------------------------------------------------------
    def canonicalize(self, value: Any) -> Any:
        """Rewrite pointers into a form comparable across APP and VAL.

        A pointer to an object allocated *during* this execution becomes
        ``("ptr:new", k)`` where k is its allocation order — the APP's k-th
        allocation and the VAL's k-th shadow allocation denote the same
        logical object.  A pointer to a pre-existing shared object becomes
        ``("ptr", obj_id)``, identical in both modes.
        """
        return canonicalize_ptrs(value, self.canon_obj)

    def canon_obj(self, obj_id: int):
        """Canonical identity of an object id (see :meth:`canonicalize`)."""
        position = self._alloc_positions.get(obj_id)
        if position is not None:
            return ("ptr:new", position)
        return ("ptr", obj_id)
