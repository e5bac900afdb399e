"""Closure logs: the self-contained unit of validation work.

A closure log (Listing 6) is produced at the end of each closure execution
and gives the validator everything needed to re-execute the closure later,
out of order, with no interaction with the application: the exact input
versions, the output versions to compare against, the recorded results of
non-deterministic system calls, and a reference to the closure's code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.machine.instruction import Trace
from repro.machine.units import Unit
from repro.memory.version import approx_size

#: Fixed per-log header cost in the memory accounting (pointers, ids,
#: timestamps — the paper's cache-locality-aware log allocator packs these).
LOG_HEADER_BYTES = 96


@dataclass(slots=True)
class ClosureLog:
    """Record of one closure execution (the APP side).

    Attributes:
        seq: global execution sequence number — the closure id used by
            shared-data tracking and the reclamation queue.
        closure_name: qualified name of the annotated closure.
        caller: label of the invoking context; the sampler keys recency by
            the (closure, caller) pair (§3.5).
        func: the closure's code — the ``closure_class`` reference.
        args/kwargs: invocation inputs (Orthrus pointers and plain values).
        inputs: obj_id → version_id pinned at first load (§3.1).
        output_versions: version ids created by stores, in creation order.
        allocated: obj_ids created by OrthrusNew, in creation order.
        deletes: obj_ids deleted, in order.
        retval: canonicalized return value (pointers canonicalized by the
            execution context so APP and VAL forms are comparable).
        syscalls: recorded results of intercepted non-deterministic calls,
            replayed in order during validation (§2.3, §3.1).
        start_time/end_time: the closure's active-window open (§3.6) and
            the log-creation time.
        core_id: core that ran the APP execution — validation must pick a
            different one.
        trace: instruction accounting for tagging and cycle charging.
    """

    seq: int
    closure_name: str
    caller: str
    func: Callable | None = None
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    inputs: dict[int, int] = field(default_factory=dict)
    output_versions: list[int] = field(default_factory=list)
    allocated: list[int] = field(default_factory=list)
    deletes: list[int] = field(default_factory=list)
    retval: Any = None
    syscalls: list[Any] = field(default_factory=list)
    start_time: float = 0.0
    end_time: float = 0.0
    core_id: int = -1
    trace: Trace | None = None
    #: set by the queue when the log is pushed (detection-latency metric)
    enqueue_time: float = 0.0
    #: :meth:`approx_bytes`, measured once when a DES plane admits the log
    #: (it is final by then) and read by every later byte account
    admitted_bytes: int = 0
    #: set by the validator when validation completes; None while pending
    validated_time: float | None = None
    #: optional custom output comparison (the ``==`` overload of §3.3)
    compare: Callable | None = None

    @property
    def units(self) -> frozenset[Unit]:
        if self.trace is None:
            return frozenset()
        return frozenset(u for u, n in self.trace.unit_counts.items() if n)

    @property
    def error_prone(self) -> bool:
        """True when the closure executed fp or vector instructions —
        the instruction classes real-world SDC studies flag (§3.5)."""
        return any(unit.error_prone for unit in self.units)

    @property
    def app_cycles(self) -> int:
        return self.trace.cycles if self.trace is not None else 0

    def approx_bytes(self) -> int:
        """Approximate log footprint for the memory-pressure experiments."""
        size = LOG_HEADER_BYTES
        size += 16 * (len(self.inputs) + len(self.output_versions))
        size += 8 * (len(self.allocated) + len(self.deletes))
        for result in self.syscalls:
            size += approx_size(result)
        return size

    def __repr__(self) -> str:
        return (
            f"ClosureLog(seq={self.seq}, {self.closure_name} from {self.caller}, "
            f"in={len(self.inputs)}, out={len(self.output_versions)})"
        )
