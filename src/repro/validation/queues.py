"""Per-core validation log queues with work stealing (§3.3, §3.5).

Each validation core owns a FIFO of closure logs.  The scheduler pushes a
log onto the queue of a core different from the one that ran the closure.
Validation threads drain their own queues first and *steal* from the
longest other queue when idle — the paper's mitigation for the tail-latency
problem of out-of-order validation (a stranded log both delays detection
and wastes the validation of its successors).

Queues are optionally *bounded*: an unbounded validation queue is a memory
leak wearing a trench coat — when validation demand exceeds capacity, the
backlog grows without limit and the lag signal the sampler feeds on becomes
meaningless.  A bounded queue instead makes overload explicit through one
of three overflow policies:

* ``reject`` — the incoming log is refused (counted, closed, dropped);
* ``drop-oldest`` — the queue evicts its head to admit the newcomer
  (bounds staleness: under overload the freshest work is the most likely
  to still be *timely* to validate);
* ``block-producer`` — admission is refused with a *would-block* outcome
  and the producer is expected to retry (backpressure; the DES drivers
  model the producer stall, the library runtime validates inline).

Every drop is accounted per queue and per reason so the conservation
invariant — every log enqueued is eventually validated, skipped, dropped
with a counter, or checksum-fallback'd — is checkable from the outside.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.closures.log import ClosureLog
from repro.errors import ConfigurationError
from repro.obs.observability import NULL_OBS

#: incoming log refused when the queue is full
OVERFLOW_REJECT = "reject"
#: head (oldest) log evicted to admit the newcomer
OVERFLOW_DROP_OLDEST = "drop-oldest"
#: admission refused with ``would_block``; producer retries (backpressure)
OVERFLOW_BLOCK = "block-producer"

OVERFLOW_POLICIES = (OVERFLOW_REJECT, OVERFLOW_DROP_OLDEST, OVERFLOW_BLOCK)

#: drop reasons (the ``reason`` label of ``orthrus_queue_drops_total``)
DROP_CAPACITY = "capacity"
DROP_EVICTED = "evicted-oldest"
DROP_SHUTDOWN = "shutdown"


@dataclass(slots=True)
class PushOutcome:
    """What happened to one :meth:`LogQueue.push` attempt.

    ``accepted`` and ``dropped`` are independent: a ``drop-oldest``
    eviction *accepts* the incoming log yet still reports the evicted one
    in ``dropped``, so callers have exactly one place to close the dropped
    log's window.
    """

    accepted: bool
    queue: "LogQueue | None" = None
    #: the log that fell out of the queue (the incoming one on reject /
    #: shutdown, the evicted head on drop-oldest); None when nothing dropped
    dropped: ClosureLog | None = None
    reason: str = ""

    @property
    def would_block(self) -> bool:
        """Backpressure signal: nothing was dropped, retry later."""
        return not self.accepted and self.dropped is None and self.reason == ""


_ACCEPTED = PushOutcome(accepted=True)
_WOULD_BLOCK = PushOutcome(accepted=False)


class LogQueue:
    """FIFO of pending closure logs for one validation core."""

    def __init__(
        self,
        queue_id: int,
        capacity: int | None = None,
        policy: str = OVERFLOW_REJECT,
    ):
        if capacity is not None and capacity < 1:
            raise ConfigurationError("queue capacity must be >= 1 (or None)")
        if policy not in OVERFLOW_POLICIES:
            raise ConfigurationError(
                f"unknown overflow policy {policy!r}; "
                f"expected one of {OVERFLOW_POLICIES}"
            )
        self.queue_id = queue_id
        self.capacity = capacity
        self.policy = policy
        self.closed = False
        #: drops by reason, for the conservation accounting
        self.drops: dict[str, int] = {}
        self._logs: deque[ClosureLog] = deque()

    @property
    def full(self) -> bool:
        return self.capacity is not None and len(self._logs) >= self.capacity

    @property
    def dropped_total(self) -> int:
        return sum(self.drops.values())

    def close(self) -> None:
        """Stop admitting logs; pending ones remain poppable."""
        self.closed = True

    def _drop(self, log: ClosureLog, reason: str) -> None:
        self.drops[reason] = self.drops.get(reason, 0) + 1

    def push(self, log: ClosureLog, now: float) -> PushOutcome:
        if self.closed:
            self._drop(log, DROP_SHUTDOWN)
            return PushOutcome(
                accepted=False, queue=self, dropped=log, reason=DROP_SHUTDOWN
            )
        if self.full:
            if self.policy == OVERFLOW_BLOCK:
                return _WOULD_BLOCK
            if self.policy == OVERFLOW_REJECT:
                self._drop(log, DROP_CAPACITY)
                return PushOutcome(
                    accepted=False, queue=self, dropped=log, reason=DROP_CAPACITY
                )
            evicted = self._logs.popleft()
            self._drop(evicted, DROP_EVICTED)
            log.enqueue_time = now
            self._logs.append(log)
            return PushOutcome(
                accepted=True, queue=self, dropped=evicted, reason=DROP_EVICTED
            )
        log.enqueue_time = now
        self._logs.append(log)
        return PushOutcome(accepted=True, queue=self)

    def pop(self) -> ClosureLog | None:
        if not self._logs:
            return None
        return self._logs.popleft()

    def steal(self) -> ClosureLog | None:
        """Steal the *oldest* log (the head).

        Classic work stealing takes the tail for cache locality, but this
        queue's thief is a validation core rescuing a backlogged peer: the
        head log is the one stranding detection latency, and it is also the
        one ``oldest_enqueue_time`` (the sampler's AIMD load signal)
        reports.  Tail-stealing left that head in place, so under
        steal-heavy drains the measured lag never improved even as the
        queue emptied — the sampler saw a permanently-stale signal and
        collapsed its rate for no reason.
        """
        if not self._logs:
            return None
        return self._logs.popleft()

    def __len__(self) -> int:
        return len(self._logs)

    @property
    def oldest_enqueue_time(self) -> float | None:
        return self._logs[0].enqueue_time if self._logs else None


class QueueSet:
    """All validation queues plus placement, bounding, and stealing policy."""

    def __init__(
        self,
        n_queues: int,
        capacity: int | None = None,
        policy: str = OVERFLOW_REJECT,
        obs=None,
    ):
        if n_queues < 1:
            raise ConfigurationError("need at least one validation queue")
        self.queues = [LogQueue(i, capacity=capacity, policy=policy) for i in range(n_queues)]
        self.capacity = capacity
        self.policy = policy
        self.accepted_total = 0
        self._next = 0
        obs = obs if obs is not None else NULL_OBS
        self._lifecycle = obs.lifecycle
        if obs.enabled:
            # Callback gauges: depth is sampled at export time, so the
            # push/pop hot path pays nothing for them.
            for queue in self.queues:
                obs.registry.gauge(
                    "orthrus_queue_depth",
                    {"queue": str(queue.queue_id)},
                    help="pending closure logs per validation queue",
                ).set_function(lambda q=queue: float(len(q)))

    # ------------------------------------------------------------------
    def _pick(self) -> LogQueue:
        """Round-robin placement, skipping full queues while any open queue
        has room — the policy only fires under *global* overload."""
        n = len(self.queues)
        start = self._next
        self._next = (self._next + 1) % n
        primary = self.queues[start]
        if not primary.full or primary.closed:
            return primary
        for offset in range(1, n):
            candidate = self.queues[(start + offset) % n]
            if not candidate.full and not candidate.closed:
                return candidate
        return primary

    def push(self, log: ClosureLog, now: float, queue_id: int | None = None) -> PushOutcome:
        """Place a log round-robin across queues (each queue maps to a
        validation core different from any application core)."""
        queue = self.queues[queue_id] if queue_id is not None else self._pick()
        outcome = queue.push(log, now)
        if outcome.accepted:
            self.accepted_total += 1
            self._lifecycle.enqueued(log, queue.queue_id, queue, now)
        if outcome.dropped is not None:
            self._lifecycle.fell_out(outcome.dropped, queue.queue_id, outcome.reason, now)
        return outcome

    def pop(self, queue_id: int, allow_steal: bool = True) -> ClosureLog | None:
        """Pop from the owner's queue, stealing from the longest other
        queue when the owner's is empty."""
        log = self.queues[queue_id].pop()
        if log is not None or not allow_steal:
            return log
        victim = max(
            (q for q in self.queues if q.queue_id != queue_id),
            key=len,
            default=None,
        )
        if victim is None or len(victim) == 0:
            return None
        stolen = victim.steal()
        if stolen is not None:
            self._lifecycle.stolen(queue_id, victim.queue_id)
        return stolen

    def shutdown(self) -> None:
        """Close every queue; later pushes are accounted as shutdown drops."""
        for queue in self.queues:
            queue.close()

    @property
    def pending(self) -> int:
        return sum(len(q) for q in self.queues)

    @property
    def capacity_total(self) -> int | None:
        if self.capacity is None:
            return None
        return self.capacity * len(self.queues)

    @property
    def utilization(self) -> float:
        """Fill fraction across all queues; 0.0 when unbounded."""
        total = self.capacity_total
        if not total:
            return 0.0
        return self.pending / total

    @property
    def drops(self) -> dict[str, int]:
        """Aggregate drop counts by reason across all queues."""
        merged: dict[str, int] = {}
        for queue in self.queues:
            for reason, count in queue.drops.items():
                merged[reason] = merged.get(reason, 0) + count
        return merged

    @property
    def dropped_total(self) -> int:
        return sum(q.dropped_total for q in self.queues)

    def queue_delay(self, now: float) -> float:
        """Age of the oldest pending log — the sampler's load signal (§3.5)."""
        oldest = [
            q.oldest_enqueue_time
            for q in self.queues
            if q.oldest_enqueue_time is not None
        ]
        if not oldest:
            return 0.0
        return now - min(oldest)

    def drain(self):
        """Pop every pending log (oldest-first across queues)."""
        logs = []
        for queue in self.queues:
            while True:
                log = queue.pop()
                if log is None:
                    break
                logs.append(log)
        logs.sort(key=lambda log: log.enqueue_time)
        return logs

    def drain_queue(self, queue_id: int) -> list[ClosureLog]:
        """Pop everything pending on one queue (quarantined-core handoff)."""
        logs = []
        queue = self.queues[queue_id]
        while True:
            log = queue.pop()
            if log is None:
                return logs
            logs.append(log)
