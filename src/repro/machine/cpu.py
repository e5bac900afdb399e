"""Server topology: NUMA nodes of cores.

The paper's testbed is dual-socket Intel Xeon Gold 6342 servers; the Orthrus
scheduler is NUMA-aware and co-locates validation with the application on
the same socket (for L3 log sharing) while never sharing a *core* between an
APP execution and its VAL re-execution (§3.5).  :class:`Machine` provides
that topology, plus helpers the fault-injection campaign uses to arm a
mercurial core.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.machine.core import Core
from repro.machine.faults import Fault


class Machine:
    """One server: ``numa_nodes`` sockets with ``cores_per_node`` cores each."""

    def __init__(self, cores_per_node: int = 8, numa_nodes: int = 2, seed: int = 0):
        if cores_per_node < 1 or numa_nodes < 1:
            raise ConfigurationError("machine needs at least one core and one node")
        self.cores_per_node = cores_per_node
        self.numa_nodes = numa_nodes
        self.cores: list[Core] = [
            Core(i, numa_node=i // cores_per_node, seed=seed * 1009 + i)
            for i in range(cores_per_node * numa_nodes)
        ]

    def __len__(self) -> int:
        return len(self.cores)

    def core(self, core_id: int) -> Core:
        return self.cores[core_id]

    def node_cores(self, node: int) -> list[Core]:
        return [c for c in self.cores if c.numa_node == node]

    def arm(self, core_id: int, fault: Fault) -> Core:
        """Arm a persistent fault on one core, making it mercurial."""
        core = self.cores[core_id]
        core.arm(fault)
        return core

    @property
    def mercurial_cores(self) -> list[Core]:
        return [c for c in self.cores if c.is_mercurial]

    @property
    def healthy_cores(self) -> list[Core]:
        return [c for c in self.cores if not c.is_mercurial]

    @property
    def quarantined_cores(self) -> list[Core]:
        """Validation cores the fault-tolerant plane pulled from service.

        Note the asymmetry with :attr:`healthy_cores`: whether a core is
        *actually* mercurial is ground truth only the fault injector knows;
        quarantine reflects what the watchdog has *inferred*.
        """
        return [c for c in self.cores if c.quarantined]

    def sibling_core(self, core_id: int, prefer_same_node: bool = True) -> Core:
        """Pick a different core for validation, preferring the same socket.

        Same-socket placement keeps closure logs hot in the shared L3
        (§3.5); a different core guarantees the VAL never reuses the APP's
        (possibly defective) private functional units.
        """
        origin = self.cores[core_id]
        candidates = [c for c in self.cores if c.core_id != core_id]
        if not candidates:
            raise ConfigurationError("validation requires at least two cores")
        if prefer_same_node:
            same = [c for c in candidates if c.numa_node == origin.numa_node]
            if same:
                return same[0]
        return candidates[0]
