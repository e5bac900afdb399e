"""Same-core replay baseline (§5 "Transient Error Detection").

PASC/SEI-style time redundancy tolerates *transient* errors by re-executing
work on the **same core** and comparing.  The paper's fault model (§2.1)
is different: production SDCs are dominated by persistent, reproducible
defects pinned to one core — and replaying on that same core reproduces
the corruption bit-for-bit, so the comparison passes and the error escapes.

This baseline exists to demonstrate that distinction: it reuses Orthrus's
closure logs but schedules the re-execution on the core that ran the
original.  Against transient faults (``trigger_rate`` well below 1) the two
executions usually disagree and the error is caught; against the paper's
persistent faults it is blind, which is exactly why Orthrus insists on a
*different* core (§3.3).
"""

from __future__ import annotations

from typing import Callable

from repro.clock import Clock
from repro.closures.context import ExecutionContext
from repro.closures.log import ClosureLog
from repro.detection import DetectionEvent
from repro.machine.core import Core
from repro.memory.heap import VersionedHeap
from repro.validation.comparator import ComparisonResult
from repro.validation.validator import compare_with_log


class SameCoreReplayValidator:
    """Time-redundancy validator: replay on the original core."""

    def __init__(
        self,
        heap: VersionedHeap,
        clock: Clock,
        detector: Callable[[DetectionEvent], None] | None = None,
    ):
        self._heap = heap
        self._clock = clock
        self._detector = detector
        self.replayed_count = 0
        self.mismatch_count = 0

    def replay(self, log: ClosureLog, core: Core) -> bool:
        """Re-execute ``log`` on ``core`` (the APP core); returns True when
        the replay matched.  A persistent defect on that core corrupts the
        replay identically, so a match does NOT imply correctness."""
        ctx = ExecutionContext(
            ExecutionContext.VAL,
            core=core,
            heap=self._heap,
            log=log,
            verify_checksums=False,
        )
        failure: str | None = None
        val_retval = None
        try:
            with ctx:
                raw = log.func(*log.args, **log.kwargs)
                val_retval = ctx.canonicalize(raw)
        except Exception as exc:
            failure = f"replay raised {type(exc).__name__}: {exc}"

        if failure is not None:
            result = ComparisonResult.mismatch(failure)
        else:
            result = compare_with_log(self._heap, log, ctx, val_retval)

        self.replayed_count += 1
        if not result.matches:
            self.mismatch_count += 1
            if self._detector is not None:
                self._detector(
                    DetectionEvent(
                        kind="same-core-replay",
                        closure=log.closure_name,
                        seq=log.seq,
                        time=self._clock.now(),
                        detail=result.detail,
                    )
                )
        return result.matches
