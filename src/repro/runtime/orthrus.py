"""The Orthrus runtime façade: the library's main entry point.

Wires together the versioned heap, reclamation, validation queues,
validator, sampler, and scheduler, and executes annotated closures:

>>> runtime = OrthrusRuntime()
>>> with runtime:
...     result = my_annotated_operator(args)      # doctest: +SKIP

Two validation modes:

* ``"inline"`` — every closure is validated synchronously on a different
  core right after it runs.  Deterministic and simple; the default for
  library users and tests.
* ``"queued"`` — closure logs are pushed to per-core validation queues and
  validated asynchronously/out-of-order when :meth:`pump` (or the
  discrete-event harness) drives the validator; the sampler decides which
  logs to validate under load.  This is the production deployment shape of
  the paper.

Detection policy: ``"flag"`` records events in :attr:`report` and keeps
running (the paper's default, non-blocking mode); ``"abort"`` raises
:class:`~repro.errors.SdcDetected` — the strict deployment where a detected
corruption stops the application before data is externalized.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.clock import Clock, LogicalClock
from repro.closures.annotation import ClosureMeta
from repro.closures.context import ExecutionContext
from repro.closures.log import ClosureLog
from repro.detection import DetectionEvent, DetectionReport, is_canary_closure
from repro.errors import ChecksumMismatch, ConfigurationError, ValidationMismatch
from repro.machine.core import Core
from repro.machine.cpu import Machine
from repro.memory.heap import VersionedHeap
from repro.memory.pointer import OrthrusPtr
from repro.memory.reclaim import ReclamationManager
from repro.obs.observability import NULL_OBS
from repro.runtime.sampling import AlwaysSampler, observe_and_decide
from repro.runtime.scheduler import LatencyTracker, Scheduler
from repro.validation.queues import OVERFLOW_REJECT, QueueSet
from repro.validation.validator import ValidationOutcome, Validator

_active_lock = threading.Lock()
_active_stack: list["OrthrusRuntime"] = []


def active() -> "OrthrusRuntime | None":
    """The innermost runtime entered with ``with runtime:`` on any thread.

    Reads without the lock: the lock orders the writers (``__exit__`` is
    check-then-pop), and one subscript sees the stack either before or
    after a racing entry or exit.  An empty stack is the error case (a
    closure called with no runtime), so it may pay for the exception.
    """
    try:
        return _active_stack[-1]
    except IndexError:
        return None


class OrthrusRuntime:
    """Orchestrates closure execution, logging, and validation."""

    def __init__(
        self,
        machine: Machine | None = None,
        app_cores: list[int] | None = None,
        validation_cores: list[int] | None = None,
        clock: Clock | None = None,
        mode: str = "inline",
        checksums: bool = True,
        detection_policy: str = "flag",
        sampler=None,
        reclaim_batch: int = 64,
        hold_versions: bool = True,
        obs=None,
        queue_capacity: int | None = None,
        overflow_policy: str = OVERFLOW_REJECT,
    ):
        if mode not in ("inline", "queued", "external"):
            raise ConfigurationError(f"unknown runtime mode {mode!r}")
        if detection_policy not in ("flag", "abort"):
            raise ConfigurationError(f"unknown detection policy {detection_policy!r}")
        self.machine = machine if machine is not None else Machine(cores_per_node=4, numa_nodes=1)
        if app_cores is None:
            app_cores = [0]
        if validation_cores is None:
            validation_cores = [i for i in range(len(self.machine)) if i not in app_cores][:1]
        self.mode = mode
        self.detection_policy = detection_policy
        self.obs = obs if obs is not None else NULL_OBS
        self.clock = clock if clock is not None else LogicalClock()
        self.heap = VersionedHeap(clock=self.clock, checksums=checksums)
        self.reclaimer = ReclamationManager(
            self.heap, batch_size=reclaim_batch, obs=self.obs
        )
        self.scheduler = Scheduler(self.machine, app_cores, validation_cores)
        self.queues = QueueSet(
            len(validation_cores),
            capacity=queue_capacity,
            policy=overflow_policy,
            obs=self.obs,
        )
        self.report = DetectionReport()
        self.validator = Validator(
            self.heap,
            self.clock,
            detector=self._on_detection,
            reclaimer=self.reclaimer,
            obs=self.obs,
        )
        self.sampler = sampler if sampler is not None else AlwaysSampler()
        self.latency = LatencyTracker()
        self.outcomes: list[ValidationOutcome] = []
        self._seq = 0
        self._pop_cursor = 0
        self._bound = _Binding()
        self._on_log: Callable[[ClosureLog], None] | None = None
        if self.obs.enabled:
            self._register_gauges()
        #: False = close each closure's active window immediately after the
        #: APP run (no deferred validation will reference its versions) —
        #: used by vanilla/RBV configurations that do not validate logs.
        self._hold_versions = hold_versions

    def _register_gauges(self) -> None:
        """Callback gauges over live runtime state: sampled only at export
        time, so the execution hot path pays nothing for them."""
        registry = self.obs.registry
        heap = self.heap
        registry.gauge(
            "orthrus_heap_versioned_bytes",
            help="bytes held by all unreclaimed versions (live + stale)",
        ).set_function(lambda: float(heap.versioned_bytes))
        registry.gauge(
            "orthrus_heap_live_bytes", help="bytes held by live versions only"
        ).set_function(lambda: float(heap.live_bytes))
        registry.gauge(
            "orthrus_heap_live_versions", help="latest versions of live objects"
        ).set_function(lambda: float(heap.live_version_count))
        registry.gauge(
            "orthrus_heap_reclaimable_versions",
            help="superseded versions awaiting the next reclamation pass",
        ).set_function(lambda: float(heap.reclaimable_version_count))
        registry.gauge(
            "orthrus_sampler_rate", help="current AIMD sampling rate"
        ).set_function(lambda: float(getattr(self.sampler, "rate", 1.0)))

    # ------------------------------------------------------------------
    # activation
    # ------------------------------------------------------------------
    def __enter__(self) -> "OrthrusRuntime":
        with _active_lock:
            _active_stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Pop strictly from the end: ``remove(self)`` would take out the
        # *outermost* entry when the same runtime is entered re-entrantly,
        # corrupting the nesting for every level still active.
        with _active_lock:
            if not _active_stack or _active_stack[-1] is not self:
                raise ConfigurationError(
                    "mismatched OrthrusRuntime exit order: this runtime is not "
                    "the innermost active one; runtimes must exit in reverse "
                    "order of entry"
                )
            _active_stack.pop()

    # ------------------------------------------------------------------
    # allocation helpers
    # ------------------------------------------------------------------
    def new(self, value: Any) -> OrthrusPtr:
        """Allocate user data outside any closure (control-path setup)."""
        return OrthrusPtr(self.heap, self.heap.allocate(value))

    def receive(self, value: Any, checksum: Any) -> OrthrusPtr:
        """Materialize user data received over the control path (§3.4)
        with the CRC that travelled with it — or
        :data:`~repro.memory.version.INTACT` when ``value`` is the sender's
        own sealed payload and its bytes arrived unchanged
        (``repro.apps.common.hop``)."""
        return OrthrusPtr(
            self.heap, self.heap.allocate(value, checksum_override=checksum)
        )

    # ------------------------------------------------------------------
    # closure execution (APP side)
    # ------------------------------------------------------------------
    def current_core(self) -> Core:
        """The application core control-path code should execute on: the
        thread's bound core, or the first application core."""
        bound = self._bound.core_id
        if bound is not None:
            return self.machine.core(bound)
        return self.scheduler.app_cores[0]

    def bind_core(self, core_id: int) -> "_CoreBinding":
        """Pin closures run on this thread to one application core.

        Used by multi-threaded drivers (and the discrete-event harness) to
        model several application threads on distinct cores.
        """
        return _CoreBinding(self, core_id)

    def run_closure(
        self,
        meta: ClosureMeta,
        args: tuple,
        kwargs: dict,
        caller: str = "<unknown>",
        core: Core | None = None,
    ) -> Any:
        if core is None:
            bound = self._bound.core_id
            core = self.machine.core(bound) if bound is not None else self.scheduler.next_app_core()
        self._seq += 1
        start = self.clock.now()
        log = ClosureLog(
            seq=self._seq,
            closure_name=meta.name,
            caller=caller,
            func=meta.fn,
            args=args,
            kwargs=kwargs,
            start_time=start,
            core_id=core.core_id,
            compare=meta.compare,
        )
        self.reclaimer.closure_started(log.seq, start)
        ctx = ExecutionContext(
            ExecutionContext.APP,
            core=core,
            heap=self.heap,
            log=log,
            verify_checksums=self.heap._checksums,
            detector=self._on_detection,
            obs=self.obs,
        )
        try:
            with ctx:
                retval = meta.fn(*args, **kwargs)
        except BaseException:
            # Fail-stop: the closure crashed.  Close its window so its
            # versions do not leak, then let the crash propagate.
            self.reclaimer.closure_finished(log.seq)
            raise
        log.retval = ctx.canonicalize(retval)
        if log.deletes:
            log.deletes = [ctx.canon_obj(oid) for oid in log.deletes]
        log.end_time = self.clock.now()
        lifecycle = self.obs.lifecycle
        lifecycle.ran(log, core.core_id)
        if self.mode != "external":
            # External drivers (the DES harness) hand the log off themselves
            # — at the simulated enqueue point, which this runtime cannot see.
            lifecycle.handed_off(log, log.end_time, core=core.core_id)
        if not self._hold_versions:
            self.reclaimer.closure_finished(log.seq)
        if self._on_log is not None:
            self._on_log(log)
        if self.mode == "inline":
            self._validate(log, validate_from=log.end_time)
        elif self.mode == "queued":
            pushed = self.queues.push(log, self.clock.now())
            if pushed.would_block:
                # block-producer backpressure: the library runtime has no
                # producer thread to park, so the closure's own thread pays
                # for an inline validation instead of losing the log.
                self._validate(log, validate_from=log.end_time)
            elif pushed.dropped is not None:
                # reject drops the incoming log, drop-oldest the evicted
                # head; either way its chain ends in a drop marker and the
                # window closes with a reason.
                now = self.clock.now()
                lifecycle.abandoned(pushed.dropped, now, pushed.reason)
                self.validator.drop(pushed.dropped, pushed.reason, now)
        # mode == "external": an external driver (the discrete-event
        # harness, or an RBV baseline that validates whole requests) owns
        # the log via the _on_log hook; nothing is queued here.
        return retval

    def _validate(self, log: ClosureLog, validate_from: float) -> None:
        """The library's one verdict path: re-execute ``log`` on the
        validation core paired with its app core, feed the sampler and the
        scaling stats, keep the outcome and close the span chain."""
        val_core = self.scheduler.validation_core_for(log.core_id)
        outcome = self.validator.validate(log, val_core)
        now = self.clock.now()
        self.sampler.on_validated(log, now)
        self.latency.record(log.closure_name, outcome.latency)
        self.outcomes.append(outcome)
        self.obs.lifecycle.verdict(log, outcome.passed, validate_from, now)

    # ------------------------------------------------------------------
    # validation pumping (queued mode)
    # ------------------------------------------------------------------
    def pump(self, max_logs: int | None = None) -> int:
        """Drive the validator over pending logs; returns logs processed.

        Applies the sampler to each dequeued log: skipped logs close their
        active window without re-execution (§3.5).
        """
        processed = 0
        obs, lifecycle = self.obs, self.obs.lifecycle
        while max_logs is None or processed < max_logs:
            now = self.clock.now()
            log = self._pop_any(now)
            if log is None:
                break
            processed += 1
            decision = observe_and_decide(
                self.sampler, log, now, self.queues.queue_delay(now), obs
            )
            if not decision.validate:
                self.validator.skip(log, now)
                lifecycle.sampled_out(log, now, decision.reason)
                continue
            self._validate(log, validate_from=now)
        return processed

    def drain(self) -> int:
        """Validate everything still pending (end-of-run flush)."""
        return self.pump(max_logs=None)

    def _pop_any(self, now: float) -> ClosureLog | None:
        # Round-robin across queues: always starting at queue 0 would drain
        # it first and starve later queues in multi-queue configurations.
        queues = self.queues.queues
        n = len(queues)
        for offset in range(n):
            index = (self._pop_cursor + offset) % n
            log = queues[index].pop()
            if log is not None:
                self._pop_cursor = (index + 1) % n
                self.obs.lifecycle.dequeued(log, index, queues[index], now)
                return log
        return None

    # ------------------------------------------------------------------
    # detection
    # ------------------------------------------------------------------
    def _on_detection(self, event: DetectionEvent) -> None:
        self.report.record(event)
        self.obs.lifecycle.detected(event)
        # Canary probes are *supposed* to mismatch; they prove liveness,
        # they do not stop the application.
        if self.detection_policy == "abort" and not is_canary_closure(event.closure):
            if event.kind == "checksum":
                raise ChecksumMismatch(event.detail, closure=event.closure)
            raise ValidationMismatch(event.detail, closure=event.closure)

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    @property
    def detections(self) -> int:
        return self.report.count()

    @property
    def validations(self) -> int:
        return self.validator.validated_count

    def reset_report(self) -> None:
        self.report.clear()


class _Binding(threading.local):
    """The application core this thread's closures run on (None: the
    scheduler picks one)."""

    core_id: int | None = None


class _CoreBinding:
    def __init__(self, runtime: OrthrusRuntime, core_id: int):
        self._runtime = runtime
        self._core_id = core_id
        self._previous: int | None = None

    def __enter__(self):
        bound = self._runtime._bound
        self._previous = bound.core_id
        bound.core_id = self._core_id
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._runtime._bound.core_id = self._previous
