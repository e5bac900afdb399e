"""Instruction sites and execution traces.

Real Orthrus injects faults at the machine-IR level, identifying each static
instruction by its position inside a function (Appendix A).  Our Python
analogue identifies an *instruction site* by the triple

    (function label, opcode, occurrence index)

where the occurrence index counts how many times that (function, opcode)
pair has executed so far *within one dynamic call*.  For deterministic
control flow this is a faithful stand-in for a static MIR instruction: the
k-th ``fmul`` executed by ``reduce()`` is the same static instruction on
every invocation, so a fault armed on that site is persistent and
reproducible — exactly the mercurial-core behaviour reported by Google [44].

The :class:`Trace` accumulates per-unit instruction counts for one dynamic
execution; the closure analysis pass (§3.5) uses it to tag fp/vector-heavy
closures, the profiling phase of the fault-injection campaign uses it to
enumerate sites, and the timing model uses it to charge cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.machine.units import CYCLE_COST, Unit


@dataclass(frozen=True, slots=True)
class Site:
    """Identity of one (approximately static) instruction site."""

    function: str
    opcode: str
    index: int

    def __str__(self) -> str:
        return f"{self.function}:{self.opcode}#{self.index}"


@dataclass(slots=True)
class Trace:
    """Per-execution instruction accounting.

    Attributes:
        unit_counts: dynamic instruction count per functional unit.
        cycles: total cycles charged under the cost model.
        sites: set of sites touched (populated only when ``record_sites``
            is enabled — the inspection/profiling phases need it, the hot
            path does not).
        fired: an armed fault fired while this trace was active, in its
            own scope or one nested in it (set by the core's faulty path).
        nested: a scope was opened inside this one, so the core issued
            instructions in this trace's extent that it does not count.
    """

    unit_counts: dict[Unit, int] = field(default_factory=dict)
    cycles: int = 0
    sites: set[Site] = field(default_factory=set)
    record_sites: bool = False
    fired: bool = False
    nested: bool = False

    def record(self, unit: Unit, site: Site | None = None) -> None:
        self.unit_counts[unit] = self.unit_counts.get(unit, 0) + 1
        self.cycles += CYCLE_COST[unit]
        if self.record_sites and site is not None:
            self.sites.add(site)

    @property
    def total_instructions(self) -> int:
        return sum(self.unit_counts.values())

    def count(self, unit: Unit) -> int:
        return self.unit_counts.get(unit, 0)

