"""Simulated CPU core: the execution substrate for data operators.

Application data paths in this reproduction do their computation through a
core's *ops API* (``core.alu.add(...)``, ``core.fpu.fmul(...)``, ...) rather
than through raw Python operators.  Each call issues one instruction:

* it is attributed to an :class:`~repro.machine.instruction.Site`,
* it is charged cycles and counted in the scope's :class:`Trace`, if
  it has one (a closure's does), and
* if the core is *mercurial* — armed with a :class:`Fault` matching the
  instruction's unit and site — the result is corrupted.

This is the substitution for the paper's LLVM machine-IR fault injection: a
fault armed on a site corrupts every execution of that site on that core,
while re-execution of the same closure on a healthy core yields the correct
result, which is precisely the divergence Orthrus detects.

A core executes one closure at a time (the paper's single-threaded closure
model, §3.1), so per-execution occurrence counters can live on the core.
"""

from __future__ import annotations

import functools
import random
from typing import Iterable, Sequence

from repro.errors import ConfigurationError
from repro.machine.faults import Fault, FaultKind, corrupt_value
from repro.machine.instruction import Site, Trace
from repro.machine.units import CYCLE_COST, Unit

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = (1 << 64) - 1


class AtomicCell:
    """A shared mutable cell accessed through cache-coherency instructions."""

    __slots__ = ("value",)

    def __init__(self, value=0):
        self.value = value

    def __repr__(self) -> str:
        return f"AtomicCell({self.value!r})"


class Core:
    """One simulated CPU core with private functional units."""

    def __init__(self, core_id: int, numa_node: int = 0, seed: int | None = None):
        self.core_id = core_id
        self.numa_node = numa_node
        self.faults: list[Fault] = []
        #: (unit, function, opcode) -> the armed faults that can match an
        #: instruction there, in arming order; filled as instructions ask,
        #: emptied by arm()/disarm()
        self._fault_index: dict[tuple[Unit, str, str], tuple[Fault, ...]] = {}
        #: set by the fault-tolerant plane's offender quarantine when this
        #: validation core is pulled from service; schedulers must not place
        #: work on a quarantined core.
        self.quarantined = False
        self._rng = random.Random(seed if seed is not None else core_id)
        self._function = "<none>"
        self._occurrences: dict[str, int] = {}
        self._trace: Trace | None = None
        #: stack of suspended (function, occurrences, trace) frames — a
        #: control-path section may invoke closures, which begin their own
        #: attribution scope on the same core (§2.2's call structure).
        self._frames: list[tuple[str, dict[str, int], Trace | None]] = []
        self.total_cycles = 0
        #: lifetime dynamic instruction count; a plain counter the
        #: host-time benchmark reads from outside (benchmarks/perf)
        self.instructions = 0
        #: inspection/profiling support (§A.3.2): when enabled, every
        #: executed instruction site is recorded with its unit and its
        #: dynamic execution count (REFINE samples dynamic instructions)
        self.record_sites = False
        self.site_units: dict[Site, Unit] = {}
        self.site_counts: dict[Site, int] = {}
        self.alu = _Alu(self)
        self.fpu = _Fpu(self)
        self.simd = _Simd(self)
        self.cache = _Cache(self)

    # ------------------------------------------------------------------
    # fault management
    # ------------------------------------------------------------------
    def arm(self, fault: Fault) -> None:
        """Make this core mercurial by arming a persistent fault."""
        self.faults.append(fault)
        self._fault_index.clear()

    def disarm(self) -> None:
        self.faults.clear()
        self._fault_index.clear()

    @property
    def is_mercurial(self) -> bool:
        return bool(self.faults)

    def can_fault(self, unit: Unit, function: str, opcode: str) -> bool:
        """Whether an armed fault can match an instruction of ``opcode`` on
        ``unit`` in a scope of ``function`` (the fault index ``_issue``
        reads; no occurrence index, no trigger draw)."""
        if not self.faults:
            return False
        key = (unit, function, opcode)
        candidates = self._fault_index.get(key)
        if candidates is None:
            candidates = self._index_faults(key)
        return bool(candidates)

    # ------------------------------------------------------------------
    # execution scoping
    # ------------------------------------------------------------------
    def begin(self, function: str, trace: Trace | None = None) -> Trace | None:
        """Start attributing instructions to ``function``, counting them in
        ``trace`` when one is given (a closure's ``ExecutionContext``
        always gives one; a control-path scope, whose counts nothing reads,
        gives none and its instructions are only counted and charged on
        the core).

        Resets the per-execution occurrence counters so that instruction
        sites are stable across invocations of the same closure.  Scopes
        nest: a control-path section can begin, invoke a closure (which
        begins/ends its own scope), and resume its own attribution; the
        suspended trace is marked ``nested``, since the core's work in its
        extent now exceeds what it counts.
        """
        outer = self._trace
        if outer is not None:
            outer.nested = True
        self._frames.append((self._function, self._occurrences, outer))
        self._function = function
        self._occurrences = {}
        self._trace = trace
        return trace

    def end(self) -> Trace | None:
        if not self._frames:
            raise ConfigurationError("Core.end() without matching begin()")
        trace = self._trace
        self._function, self._occurrences, self._trace = self._frames.pop()
        return trace

    def scope(self, function: str, trace: Trace | None = None) -> "_CoreScope":
        """Context manager form of begin()/end() for control-path sections."""
        return _CoreScope(self, function, trace)

    # ------------------------------------------------------------------
    # instruction issue
    # ------------------------------------------------------------------
    def _issue(self, opcode: str, unit: Unit, result, nop_fallback, cycle_weight: int = 1):
        occurrences = self._occurrences
        index = occurrences.get(opcode, 0)
        occurrences[opcode] = index + 1
        cycles = CYCLE_COST[unit] * cycle_weight
        self.total_cycles += cycles
        self.instructions += 1
        # A Site is built iff something can record it; an armed fault is
        # matched by (unit, function, opcode) through the index and then by
        # occurrence index, so a miss builds nothing.  The occurrence index
        # above advances regardless, so a fault armed mid-scope still names
        # the instruction it would have named on an always-recording core.
        faults = self.faults
        trace = self._trace
        if trace is None:
            if not (faults or self.record_sites):
                return result
            traced = False
        else:
            unit_counts = trace.unit_counts
            unit_counts[unit] = unit_counts.get(unit, 0) + 1
            trace.cycles += cycles
            traced = trace.record_sites
            if not (faults or self.record_sites or traced):
                return result
        function = self._function
        if self.record_sites or traced:
            site = Site(function, opcode, index)
            if self.record_sites:
                self.site_units[site] = unit
                self.site_counts[site] = self.site_counts.get(site, 0) + 1
            if traced:
                trace.sites.add(site)
        if not faults:
            return result
        key = (unit, function, opcode)
        candidates = self._fault_index.get(key)
        if candidates is None:
            candidates = self._index_faults(key)
        for fault in candidates:
            if fault.site is not None and fault.site.index != index:
                continue
            if fault.trigger_rate < 1.0 and self._rng.random() >= fault.trigger_rate:
                continue
            self._mark_fired(trace)
            if fault.kind is FaultKind.NOP:
                return nop_fallback
            return corrupt_value(result, fault.kind, fault.bit)
        return result

    def _mark_fired(self, trace: Trace | None) -> None:
        """An armed fault fired: mark the active trace and every trace
        suspended under it, so a closure whose extent held the firing says
        so whichever scope the instruction ran in.  Reached from the faulty
        return path only."""
        if trace is not None:
            trace.fired = True
        for _function, _occurrences, outer in self._frames:
            if outer is not None:
                outer.fired = True

    def credit(self, trace: Trace) -> None:
        """Charge this core the instructions and cycles of ``trace`` without
        issuing them: the work of a replay whose verdict is known (a fault-free
        closure re-executed on a healthy core issues exactly its APP trace)."""
        self.instructions += trace.total_instructions
        self.total_cycles += trace.cycles

    def _index_faults(self, key: tuple[Unit, str, str]) -> tuple[Fault, ...]:
        """The armed faults that can match an instruction at ``key``, in
        arming order: those on its unit that are unit-wide or pinned to a
        site of the same function and opcode (``Fault.matches`` less the
        occurrence index, which ``_issue`` checks)."""
        unit, function, opcode = key
        candidates = tuple(
            fault
            for fault in self.faults
            if fault.unit is unit
            and (
                fault.site is None
                or (fault.site.function == function and fault.site.opcode == opcode)
            )
        )
        self._fault_index[key] = candidates
        return candidates

    def __repr__(self) -> str:
        tag = " mercurial" if self.faults else ""
        if self.quarantined:
            tag += " quarantined"
        return f"Core(id={self.core_id}, numa={self.numa_node}{tag})"


class _CoreScope:
    __slots__ = ("_core", "_function", "_trace", "trace")

    def __init__(self, core: "Core", function: str, trace: Trace | None):
        self._core = core
        self._function = function
        self._trace = trace
        #: the scope's trace: the one passed in, else ``None``
        self.trace: Trace | None = None

    def __enter__(self) -> "_CoreScope":
        self.trace = self._core.begin(self._function, self._trace)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._core.end()


class _Alu:
    """Integer arithmetic, logic, compare, and byte-move instructions."""

    __slots__ = ("_core",)

    def __init__(self, core: Core):
        self._core = core

    def add(self, a: int, b: int) -> int:
        return self._core._issue("add", Unit.ALU, a + b, a)

    def sub(self, a: int, b: int) -> int:
        return self._core._issue("sub", Unit.ALU, a - b, a)

    def mul(self, a: int, b: int) -> int:
        return self._core._issue("mul", Unit.ALU, a * b, a)

    def div(self, a: int, b: int) -> int:
        return self._core._issue("div", Unit.ALU, a // b, a)

    def mod(self, a: int, b: int) -> int:
        return self._core._issue("mod", Unit.ALU, a % b, a)

    def xor(self, a: int, b: int) -> int:
        return self._core._issue("xor", Unit.ALU, a ^ b, a)

    def and_(self, a: int, b: int) -> int:
        return self._core._issue("and", Unit.ALU, a & b, a)

    def or_(self, a: int, b: int) -> int:
        return self._core._issue("or", Unit.ALU, a | b, a)

    def shl(self, a: int, b: int) -> int:
        return self._core._issue("shl", Unit.ALU, a << b, a)

    def shr(self, a: int, b: int) -> int:
        return self._core._issue("shr", Unit.ALU, a >> b, a)

    def lt(self, a, b) -> bool:
        """Compare-less-than; corruption models branch-condition errors."""
        return self._core._issue("lt", Unit.ALU, bool(a < b), False)

    def le(self, a, b) -> bool:
        return self._core._issue("le", Unit.ALU, bool(a <= b), False)

    def eq(self, a, b) -> bool:
        return self._core._issue("eq", Unit.ALU, bool(a == b), False)

    def hash64(self, data) -> int:
        """FNV-1a over the UTF-8/byte representation of ``data``.

        Stands in for the hash computations of Listing 2; a fault here
        reproduces the misplaced-bucket SDC the paper motivates with.
        """
        # Only exact key types are memoised by value: ``0.0 == -0.0`` and
        # ``True == 1`` are equal keys with different bytes.
        fnv = _fnv1a if type(data) in _MEMO_KEY_TYPES else _fnv1a.__wrapped__
        h, weight = fnv(data)
        return self._core._issue("hash64", Unit.ALU, h, 0, cycle_weight=weight)

    def copy(self, data: bytes) -> bytes:
        """Byte move (``rep movsb``): how control-path code shuttles payloads.

        A fault on this instruction corrupts a payload *after* its checksum
        was computed, which is exactly the control-path corruption class the
        CRC verification at the data-path boundary catches (§3.4).
        """
        weight = len(data) // 64 or 1
        return self._core._issue("copy", Unit.ALU, data, b"", cycle_weight=weight)

    def copy_length(self, length: int) -> None:
        """The :meth:`copy` of ``length`` bytes, issued and charged the
        same, where no fault can reach it and nothing reads its result
        (``Core.can_fault``): the bytes need not exist."""
        self._core._issue("copy", Unit.ALU, None, None, cycle_weight=length // 64 or 1)


class _Fpu:
    """Floating-point instructions."""

    __slots__ = ("_core",)

    def __init__(self, core: Core):
        self._core = core

    def fadd(self, a: float, b: float) -> float:
        return self._core._issue("fadd", Unit.FPU, float(a) + float(b), float(a))

    def fsub(self, a: float, b: float) -> float:
        return self._core._issue("fsub", Unit.FPU, float(a) - float(b), float(a))

    def fmul(self, a: float, b: float) -> float:
        return self._core._issue("fmul", Unit.FPU, float(a) * float(b), float(a))

    def fdiv(self, a: float, b: float) -> float:
        return self._core._issue("fdiv", Unit.FPU, float(a) / float(b), float(a))


class _Simd:
    """Vector instructions over fixed-width lane tuples."""

    __slots__ = ("_core",)

    def __init__(self, core: Core):
        self._core = core

    def vadd(self, a: Sequence, b: Sequence) -> tuple:
        result = tuple(x + y for x, y in zip(a, b, strict=True))
        return self._core._issue("vadd", Unit.SIMD, result, tuple(a))

    def vsub(self, a: Sequence, b: Sequence) -> tuple:
        result = tuple(x - y for x, y in zip(a, b, strict=True))
        return self._core._issue("vsub", Unit.SIMD, result, tuple(a))

    def vmul(self, a: Sequence, b: Sequence) -> tuple:
        result = tuple(x * y for x, y in zip(a, b, strict=True))
        return self._core._issue("vmul", Unit.SIMD, result, tuple(a))

    def vdot(self, a: Sequence, b: Sequence) -> float:
        result = float(sum(x * y for x, y in zip(a, b, strict=True)))
        return self._core._issue("vdot", Unit.SIMD, result, 0.0)

    def vsum(self, a: Iterable) -> float:
        items = tuple(a)
        weight = len(items) // 8 or 1
        return self._core._issue(
            "vsum", Unit.SIMD, float(sum(items)), 0.0, cycle_weight=weight
        )


class _Cache:
    """Cache-coherency (atomic / locked) instructions over shared cells."""

    __slots__ = ("_core",)

    def __init__(self, core: Core):
        self._core = core

    def atomic_read(self, cell: AtomicCell):
        return self._core._issue("atomic_read", Unit.CACHE, cell.value, 0)

    def atomic_write(self, cell: AtomicCell, value) -> None:
        stored = self._core._issue("atomic_write", Unit.CACHE, value, cell.value)
        cell.value = stored

    def atomic_add(self, cell: AtomicCell, delta: int) -> int:
        """Locked add; returns the new value (corruptions hit the result)."""
        new = self._core._issue("atomic_add", Unit.CACHE, cell.value + delta, cell.value)
        cell.value = new
        return new

    def cas(self, cell: AtomicCell, expected, new) -> bool:
        success = self._core._issue("cas", Unit.CACHE, cell.value == expected, False)
        if success:
            cell.value = new
        return success

    def load_shared(self, value):
        """A coherent load of shared data inside a critical section.

        Side-effect free: the caller performs the versioned read and this
        instruction models the cache-coherency transaction that delivers
        it (the profiling rule of §A.3.2 classifies loads/stores between
        atomic primitives as cache-unit instructions).  Corruption yields a
        wrong loaded value; NOP yields a stale/zero read.
        """
        return self._core._issue("cache_load", Unit.CACHE, value, 0)

    def store_shared(self, value):
        """A coherent store of shared data; returns the value that actually
        reaches memory (possibly corrupted).  The caller writes it through
        a versioned pointer, keeping re-execution side-effect free."""
        return self._core._issue("cache_store", Unit.CACHE, value, value)


#: key types whose equal values always have equal bytes under _as_bytes
_MEMO_KEY_TYPES = frozenset({str, bytes, int})


@functools.lru_cache(maxsize=4096, typed=True)
def _fnv1a(data) -> tuple[int, int]:
    """FNV-1a of ``data``'s bytes and its cycle weight.  Both depend on the
    bytes alone, so each distinct key is hashed on the host once; the
    simulated ``hash64`` instruction is still issued, charged and
    corruptible on every call.  ``typed``: ``1`` and ``1.0`` are one dict
    key but not one byte string."""
    raw = _as_bytes(data)
    h = _FNV_OFFSET
    for byte in raw:
        h = ((h ^ byte) * _FNV_PRIME) & _U64
    return h, len(raw) // 8 or 1


def _as_bytes(data) -> bytes:
    if isinstance(data, bytes):
        return data
    if isinstance(data, str):
        return data.encode("utf-8")
    if isinstance(data, int):
        return data.to_bytes(8, "little", signed=True)
    if isinstance(data, float):
        import struct

        return struct.pack("<d", data)
    raise TypeError(f"cannot hash value of type {type(data).__name__}")
