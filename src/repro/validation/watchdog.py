"""Validation-plane watchdog: deadlines, re-dispatch, offender tracking.

Orthrus's detection guarantee quietly assumes the validation plane itself
never fails.  It does: a validation core can crash mid-re-execution, hang
on a stuck interconnect, run an order of magnitude slow, or finish the
work and lose the verdict.  Any of those *strands* the dispatched log —
nobody validates it, nobody closes its version window, and detection for
that closure silently never happens.

The watchdog closes the loop.  Every dispatch gets a virtual-time
deadline; a dispatch that neither completes nor cancels by its deadline is
*expired* — the log is taken back and re-dispatched to a healthy core with
capped exponential backoff, up to a retry budget.  Cores that repeatedly
eat deadlines are reported to an offender hook (wired to the
fault-tolerant plane's :class:`~repro.harness.chaos.OffenderQuarantine`).

The :class:`ValidationLedger` is the conservation check that makes
"nothing is silently stranded" a testable invariant: every enqueued log
must reach exactly one terminal state — validated, skipped, dropped with a
reason, or degraded to a checksum fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.closures.log import ClosureLog
from repro.errors import ConfigurationError
from repro.obs.observability import NULL_OBS

#: ledger terminal states
STATE_VALIDATED = "validated"
STATE_SKIPPED = "skipped"
STATE_DROPPED = "dropped"
STATE_FALLBACK = "fallback"

TERMINAL_STATES = (STATE_VALIDATED, STATE_SKIPPED, STATE_DROPPED, STATE_FALLBACK)


@dataclass(slots=True)
class WatchdogConfig:
    """Deadline and retry policy for dispatched validations."""

    #: virtual seconds a dispatched log may stay in flight
    deadline: float = 500e-6
    #: re-dispatch attempts per log after the first (0 = no retries)
    max_retries: int = 3
    #: backoff before the first re-dispatch
    backoff_base: float = 20e-6
    #: exponential growth factor per retry
    backoff_factor: float = 2.0
    #: backoff ceiling
    backoff_cap: float = 200e-6
    #: deadline timeouts on one core before it is reported an offender
    offender_threshold: int = 2

    def violations(self) -> list[str]:
        found = []
        if not 0 < self.deadline < math.inf:
            found.append(
                f"watchdog deadline must be positive and finite, got {self.deadline}"
            )
        if self.max_retries < 0:
            found.append("watchdog retry budget must be >= 0")
        if self.backoff_base < 0 or self.backoff_cap < self.backoff_base:
            found.append("watchdog backoff must satisfy 0 <= base <= cap")
        if self.offender_threshold < 1:
            found.append("offender threshold must be >= 1")
        return found

    def validate(self) -> None:
        for message in self.violations():
            raise ConfigurationError(message)


@dataclass(slots=True)
class Dispatch:
    """One in-flight (log, core) validation attempt."""

    log: ClosureLog
    core_id: int
    dispatched_at: float
    deadline_at: float
    #: 1 for the first dispatch, +1 per re-dispatch
    attempt: int


class ValidationWatchdog:
    """Tracks in-flight validations and expires the ones that stall."""

    def __init__(
        self,
        config: WatchdogConfig | None = None,
        obs=None,
        on_offender: Callable[[int, float], None] | None = None,
    ):
        self.config = config if config is not None else WatchdogConfig()
        self.config.validate()
        self._lifecycle = (obs if obs is not None else NULL_OBS).lifecycle
        self._on_offender = on_offender
        self._inflight: dict[int, Dispatch] = {}
        self._attempts: dict[int, int] = {}
        self.timeouts_by_core: dict[int, int] = {}
        self.timeouts_total = 0
        self.dispatches_total = 0
        self.redispatches_total = 0
        #: completions that arrived after their dispatch had already been
        #: expired and handed to another core — the result is discarded
        self.duplicates_total = 0
        #: logs whose retry budget ran out (handed to the fallback path)
        self.exhausted_total = 0
        self._offenders_reported: set[int] = set()

    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        return len(self._inflight)

    def dispatched(self, log: ClosureLog, core_id: int, now: float) -> Dispatch:
        """Register a dispatch; the log must not already be in flight."""
        if log.seq in self._inflight:
            raise ConfigurationError(
                f"seq={log.seq} dispatched while already in flight"
            )
        attempt = self._attempts.get(log.seq, 0) + 1
        self._attempts[log.seq] = attempt
        dispatch = Dispatch(
            log=log,
            core_id=core_id,
            dispatched_at=now,
            deadline_at=now + self.config.deadline,
            attempt=attempt,
        )
        self._inflight[log.seq] = dispatch
        self.dispatches_total += 1
        if attempt > 1:
            self.redispatches_total += 1
            self._lifecycle.retried()
        return dispatch

    def completed(self, seq: int, now: float) -> bool:
        """A validator finished ``seq``.  Returns False when the dispatch
        had already expired (the verdict belongs to a superseded attempt
        and must be discarded — another core owns the log now)."""
        if self._inflight.pop(seq, None) is None:
            self.duplicates_total += 1
            self._lifecycle.duplicated()
            return False
        self._attempts.pop(seq, None)
        return True

    def expired(self, now: float) -> list[Dispatch]:
        """Pop every dispatch past its deadline; account per-core timeouts
        and report repeat offenders."""
        late = [d for d in self._inflight.values() if now >= d.deadline_at]
        lifecycle = self._lifecycle
        for dispatch in late:
            del self._inflight[dispatch.log.seq]
            self.timeouts_total += 1
            core_id = dispatch.core_id
            count = self.timeouts_by_core.get(core_id, 0) + 1
            self.timeouts_by_core[core_id] = count
            lifecycle.timed_out(dispatch, now)
            if (
                count >= self.config.offender_threshold
                and core_id not in self._offenders_reported
            ):
                self._offenders_reported.add(core_id)
                lifecycle.offender(core_id, count, now)
                if self._on_offender is not None:
                    self._on_offender(core_id, now)
        return late

    def plan_redispatch(self, dispatch: Dispatch, now: float) -> float | None:
        """Backoff delay before re-dispatching an expired log, or None when
        the retry budget is exhausted (caller falls back / drops)."""
        if dispatch.attempt > self.config.max_retries:
            self.exhausted_total += 1
            self._attempts.pop(dispatch.log.seq, None)
            return None
        backoff = self.config.backoff_base * (
            self.config.backoff_factor ** (dispatch.attempt - 1)
        )
        return min(backoff, self.config.backoff_cap)

    def abandon(self, now: float) -> list[Dispatch]:
        """Take back every in-flight dispatch (end-of-run sweep)."""
        stranded = list(self._inflight.values())
        self._inflight.clear()
        self._attempts.clear()
        return stranded


class ValidationLedger:
    """Exactly-one-terminal-state accounting for every enqueued log.

    The conservation invariant::

        logs_in == validated + skipped + dropped + fallback

    A log that reaches no terminal state is *silently stranded* — exactly
    the failure mode the watchdog exists to prevent — and a log that
    reaches two would mean a duplicated verdict (a re-dispatched log whose
    original validator also completed).
    """

    def __init__(self):
        self._terminal: dict[int, str] = {}
        self._seen: set[int] = set()
        self.counts: dict[str, int] = {state: 0 for state in TERMINAL_STATES}
        self.drop_reasons: dict[str, int] = {}

    @property
    def enqueued(self) -> int:
        return len(self._seen)

    @property
    def accounted(self) -> int:
        return len(self._terminal)

    @property
    def outstanding(self) -> int:
        return len(self._seen) - len(self._terminal)

    @property
    def conserved(self) -> bool:
        return self.outstanding == 0

    def enqueue(self, seq: int) -> None:
        """A log entered the validation plane (idempotent: re-dispatches of
        the same seq do not double-count)."""
        self._seen.add(seq)

    def _settle(self, seq: int, state: str) -> None:
        if seq not in self._seen:
            self._seen.add(seq)
        if seq in self._terminal:
            raise ConfigurationError(
                f"seq={seq} already settled as {self._terminal[seq]!r}; "
                f"refusing second terminal state {state!r}"
            )
        self._terminal[seq] = state
        self.counts[state] += 1

    def validated(self, seq: int) -> None:
        self._settle(seq, STATE_VALIDATED)

    def skipped(self, seq: int) -> None:
        self._settle(seq, STATE_SKIPPED)

    def dropped(self, seq: int, reason: str) -> None:
        self._settle(seq, STATE_DROPPED)
        self.drop_reasons[reason] = self.drop_reasons.get(reason, 0) + 1

    def fallback(self, seq: int) -> None:
        self._settle(seq, STATE_FALLBACK)

    def summary(self) -> dict:
        return {
            "enqueued": self.enqueued,
            "validated": self.counts[STATE_VALIDATED],
            "skipped": self.counts[STATE_SKIPPED],
            "dropped": self.counts[STATE_DROPPED],
            "fallback": self.counts[STATE_FALLBACK],
            "drop_reasons": dict(sorted(self.drop_reasons.items())),
            "outstanding": self.outstanding,
        }
