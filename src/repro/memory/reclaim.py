"""Watermark-based reclamation of stale data versions (§3.6).

A version is reclaimable once no running closure and no pending closure log
can reference it.  Orthrus approximates this with two windows:

* each version's *visible window* — creation until superseded/deleted;
* each closure's *active window* — execution start until its validation
  completes (or its log is dropped by the sampler).

The manager keeps the *combined queue* of all closures with open active
windows, ordered by start time (starts are monotonic, so insertion order
suffices).  When a closure leaves the queue, every version whose visible
window ended before the earliest remaining start time ``t`` is reclaimed in
a batch: nothing that starts later can ever see it.
"""

from __future__ import annotations

import math
from collections import OrderedDict

from repro.errors import ConfigurationError
from repro.memory.heap import VersionedHeap
from repro.obs.observability import NULL_OBS


class ReclamationManager:
    """Tracks active windows and drives batched version reclamation."""

    def __init__(self, heap: VersionedHeap, batch_size: int = 64, obs=None):
        if batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        self._heap = heap
        self._batch_size = batch_size
        self._active: OrderedDict[int, float] = OrderedDict()
        self._completed_since_reclaim = 0
        self.reclaim_passes = 0
        obs = obs if obs is not None else NULL_OBS
        self._lifecycle = obs.lifecycle
        if obs.enabled:
            obs.registry.gauge(
                "orthrus_reclaim_open_windows",
                help="closures whose active window is still open",
            ).set_function(lambda: float(len(self._active)))

    # ------------------------------------------------------------------
    def closure_started(self, seq: int, start_time: float) -> None:
        """Open the closure's active window (APP execution begins)."""
        if self._active:
            last_start = next(reversed(self._active.values()))
            if start_time < last_start:
                raise ConfigurationError("closure start times must be monotonic")
        self._active[seq] = start_time

    def closure_finished(self, seq: int) -> int:
        """Close the closure's active window (validated or dropped).

        Returns the number of versions reclaimed by the batched pass (0
        when the pass was deferred for batching).
        """
        self._active.pop(seq, None)
        self._completed_since_reclaim += 1
        if self._completed_since_reclaim < self._batch_size:
            return 0
        return self.reclaim_now()

    def reclaim_now(self) -> int:
        """Run a reclamation pass immediately."""
        self._completed_since_reclaim = 0
        self.reclaim_passes += 1
        watermark = self.watermark
        reclaimed = self._heap.reclaim_before(watermark)
        self._lifecycle.reclaimed(reclaimed, watermark, self._active, self._heap)
        return reclaimed

    # ------------------------------------------------------------------
    @property
    def watermark(self) -> float:
        """Earliest start time across all open active windows (``t``).

        With no open windows every closed visible window is stale, so the
        watermark is +inf.
        """
        if not self._active:
            return math.inf
        return next(iter(self._active.values()))

    @property
    def open_windows(self) -> int:
        return len(self._active)
