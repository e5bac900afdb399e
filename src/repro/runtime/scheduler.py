"""Validation-core scheduling (§3.5).

The scheduler owns the split between application cores and validation
cores, places each validation on a core *different from* the APP core
(mercurial defects live in core-private units, so re-using the core would
corrupt both runs identically), prefers the same NUMA node (closure logs
stay hot in the shared L3), and tracks per-closure validation latency over
a sliding window of eight logs to drive dynamic scaling: a closure whose
latency runs 50% above the global average asks for an extra validation
thread.
"""

from __future__ import annotations

from collections import deque

from repro.errors import ConfigurationError
from repro.machine.core import Core
from repro.machine.cpu import Machine


class Scheduler:
    """Assigns APP and VAL work to cores on one machine."""

    def __init__(
        self,
        machine: Machine,
        app_cores: list[int],
        validation_cores: list[int],
    ):
        if not app_cores:
            raise ConfigurationError("at least one application core required")
        if not validation_cores:
            raise ConfigurationError("at least one validation core required")
        overlap = set(app_cores) & set(validation_cores)
        if overlap:
            raise ConfigurationError(
                f"cores {sorted(overlap)} assigned to both APP and validation"
            )
        for core_id in list(app_cores) + list(validation_cores):
            if not 0 <= core_id < len(machine):
                raise ConfigurationError(f"core {core_id} not present on machine")
        self.machine = machine
        self.app_cores = [machine.core(i) for i in app_cores]
        self.validation_cores = [machine.core(i) for i in validation_cores]
        self._next_app = 0
        self._next_val = 0

    def next_app_core(self) -> Core:
        core = self.app_cores[self._next_app]
        self._next_app = (self._next_app + 1) % len(self.app_cores)
        return core

    # ------------------------------------------------------------------
    # quarantine support (the fault-tolerant plane's offender quarantine)
    # ------------------------------------------------------------------
    def remove_core(self, core_id: int) -> None:
        """Pull a validation core from the validator pool (quarantine).

        Refuses to empty the pool: a deployment cannot run with zero
        validation cores, so quarantining the last one is rejected and the
        caller must keep the suspect in service (flagged, but scheduled).
        """
        remaining = [c for c in self.validation_cores if c.core_id != core_id]
        if not remaining:
            raise ConfigurationError(
                f"cannot quarantine core {core_id}: it is the last validation core"
            )
        self.validation_cores = remaining

    def validation_core_for(self, app_core_id: int) -> Core:
        """A validation core ≠ the APP core, same NUMA node when possible."""
        app_core = self.machine.core(app_core_id)
        candidates = [c for c in self.validation_cores if c.core_id != app_core_id]
        if not candidates:
            raise ConfigurationError(
                "no validation core distinct from the application core"
            )
        same_node = [c for c in candidates if c.numa_node == app_core.numa_node]
        pool = same_node or candidates
        core = pool[self._next_val % len(pool)]
        self._next_val += 1
        return core

    def queue_index_for(self, core: Core) -> int:
        return self.validation_cores.index(core)


class LatencyTracker:
    """Per-closure validation latency over the last eight logs (§3.5).

    Drives dynamic scaling: :meth:`closures_needing_help` returns the
    closures whose recent average latency exceeds the global average by the
    configured ratio — the signal to launch another validation thread.
    """

    WINDOW = 8

    def __init__(self, help_ratio: float = 1.5):
        if help_ratio <= 1.0:
            raise ConfigurationError("help_ratio must exceed 1.0")
        self._help_ratio = help_ratio
        self._windows: dict[str, deque[float]] = {}
        self._global_sum = 0.0
        self._global_count = 0

    def record(self, closure_name: str, latency: float) -> None:
        window = self._windows.get(closure_name)
        if window is None:
            window = self._windows[closure_name] = deque(maxlen=self.WINDOW)
        window.append(latency)
        self._global_sum += latency
        self._global_count += 1

    @property
    def global_average(self) -> float:
        if self._global_count == 0:
            return 0.0
        return self._global_sum / self._global_count

    def closure_average(self, closure_name: str) -> float:
        window = self._windows.get(closure_name)
        if not window:
            return 0.0
        return sum(window) / len(window)

    def closures_needing_help(self) -> list[str]:
        average = self.global_average
        if average == 0.0:
            return []
        threshold = average * self._help_ratio
        return [
            name
            for name, window in self._windows.items()
            if len(window) == self.WINDOW
            and sum(window) / len(window) > threshold
        ]
