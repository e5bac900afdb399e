"""Functional-unit taxonomy for the simulated machine.

The paper's fault study (Alibaba Cloud [73], Meta [30], Google [44]) groups
silent computation errors by the CPU functional unit that produced them:
arithmetic/logic (ALU), floating point (FPU), vector (SIMD), and cache
coherency (CACHE).  Orthrus' fault-injection framework applies a 1:2:2:1
fault-count ratio across ALU:SIMD:FPU:CACHE (Appendix A.2), and the adaptive
sampler boosts closures containing fp/vector instructions (§3.5).  This
module defines the unit enum, the per-unit cycle costs used by the timing
model, and the Alibaba injection ratio used by the campaign.
"""

from __future__ import annotations

import enum


class Unit(enum.Enum):
    """A CPU functional unit, as classified by the profiling phase (§A.3.2)."""

    ALU = "alu"
    FPU = "fpu"
    SIMD = "simd"
    CACHE = "cache"

    # Members are singletons compared by identity, so hash them that way
    # too: ``Enum.__hash__`` is a Python-level ``hash(self._name_)`` and
    # ``Core._issue`` keys two dicts by unit on every instruction.
    __hash__ = object.__hash__

    @property
    def error_prone(self) -> bool:
        """Whether real-world SDC studies flag this unit as high risk.

        Prior studies show errors concentrate in floating-point and vector
        units; the Orthrus compiler tags closures containing these
        instruction types for elevated validation priority (§3.5).
        """
        return self in (Unit.FPU, Unit.SIMD)


#: Fault-count ratio across units, mirroring Alibaba's observed SDC
#: distribution (Appendix A.2): ALU : SIMD : FPU : CACHE = 1 : 2 : 2 : 1.
ALIBABA_FAULT_RATIO: dict[Unit, int] = {
    Unit.ALU: 1,
    Unit.SIMD: 2,
    Unit.FPU: 2,
    Unit.CACHE: 1,
}

#: Cycle cost charged per instruction by the timing model.  Values follow
#: typical x86 latencies: simple integer ops ~1 cycle, fp ~4, vector ~4,
#: atomics/locked ops ~20 (cache-line ownership transfer).
CYCLE_COST: dict[Unit, int] = {
    Unit.ALU: 1,
    Unit.FPU: 4,
    Unit.SIMD: 4,
    Unit.CACHE: 20,
}
