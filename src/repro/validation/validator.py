"""The validator: out-of-order re-execution of closure logs (§3.3).

A closure log is self-contained — inputs pinned to exact versions, recorded
syscall results, a reference to the closure code — so the validator can
re-execute it at any later time, on any core other than the one that ran
the original, with no synchronization against the application.  Stores land
in a private heap; the observable effect (output versions, deletes, return
value) is compared against the log, and any divergence is a detected SDC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.clock import Clock
from repro.closures.context import ExecutionContext
from repro.closures.log import ClosureLog
from repro.detection import DetectionEvent
from repro.errors import ConfigurationError
from repro.machine.core import Core
from repro.machine.cpu import Machine
from repro.memory.heap import VersionedHeap
from repro.memory.reclaim import ReclamationManager
from repro.obs.observability import NULL_OBS
from repro.validation.comparator import (
    ComparisonResult,
    canonicalize_ptrs,
    compare_execution,
    payloads_match,
)


@dataclass(slots=True)
class ValidationOutcome:
    """Result of validating one closure log."""

    log: ClosureLog
    passed: bool
    detail: str
    #: cycles the re-execution consumed (charged to the validation core)
    val_cycles: int
    #: validation latency: log completion to validation completion
    latency: float


@dataclass(slots=True)
class Reexecution:
    """One re-execution of a closure log, compared against its APP record.

    What the validator gets back from replaying a log on some core: "does
    this execution agree with what the application recorded?".
    """

    result: ComparisonResult
    #: cycles the re-execution consumed on its core
    val_cycles: int
    #: the execution context (its private heap holds the re-executed
    #: writes/deletes)
    context: ExecutionContext
    #: set when the re-execution raised (the APP run did not)
    error: str | None = None

    @property
    def matches(self) -> bool:
        return self.result.matches


def compare_with_log(
    heap: VersionedHeap, log: ClosureLog, ctx: ExecutionContext, val_retval
) -> ComparisonResult:
    """Compare what ``ctx`` re-executed against what ``log`` recorded.

    The APP output versions are read where they lie, in lockstep with the
    private heap's writes; canonical copies are materialized only for a
    closure that overrides ``compare``.
    """
    if log.allocated:
        app_positions = {oid: k for k, oid in enumerate(log.allocated)}

        def canon_app(obj_id: int):
            position = app_positions.get(obj_id)
            return ("ptr:new", position) if position is not None else ("ptr", obj_id)
    else:
        def canon_app(obj_id: int):
            return ("ptr", obj_id)

    canon_val = ctx.canon_obj
    custom = log.compare

    def same_output(version_id: int, write: tuple[int, object]) -> bool:
        # Outputs are (target, value) pairs: a store of the right value to
        # the *wrong object* (e.g. a mis-hashed bucket, Listing 2) must
        # diverge even though the stored bytes match.
        version = heap.version(version_id)
        obj_id, value = write
        app_target, val_target = canon_app(version.obj_id), canon_val(obj_id)
        if custom is not None:
            return custom(
                (app_target, canonicalize_ptrs(version.value, canon_app)),
                (val_target, canonicalize_ptrs(value, canon_val)),
            )
        return app_target == val_target and payloads_match(
            version.value, value, canon_app, canon_val
        )

    deleted = ctx.private.deleted
    return compare_execution(
        app_outputs=log.output_versions,
        val_outputs=ctx.private.writes,
        app_retval=log.retval,
        val_retval=val_retval,
        app_deletes=log.deletes,
        val_deletes=[canon_val(oid) for oid in deleted] if deleted else deleted,
        compare=same_output,
    )


def reexecute(
    heap: VersionedHeap,
    log: ClosureLog,
    core: Core,
) -> Reexecution:
    """Re-execute ``log`` on ``core`` in VAL mode and compare (§3.3)."""
    if core.core_id == log.core_id:
        raise ConfigurationError(
            f"re-execution of {log.closure_name} scheduled on its own APP "
            f"core {core.core_id}; a faulty unit would corrupt both runs"
        )
    ctx = ExecutionContext(
        ExecutionContext.VAL,
        core=core,
        heap=heap,
        log=log,
        verify_checksums=False,
    )
    failure: str | None = None
    val_retval = None
    try:
        with ctx:
            raw = log.func(*log.args, **log.kwargs)
            val_retval = ctx.canonicalize(raw)
    except Exception as exc:  # divergence: the APP run did not raise
        failure = f"re-execution raised {type(exc).__name__}: {exc}"
    val_cycles = ctx.trace.cycles if ctx.trace is not None else 0

    if failure is not None:
        return Reexecution(
            result=ComparisonResult.mismatch(failure),
            val_cycles=val_cycles,
            context=ctx,
            error=failure,
        )
    result = compare_with_log(heap, log, ctx, val_retval)
    return Reexecution(result=result, val_cycles=val_cycles, context=ctx)


def replay_needed(log: ClosureLog, core: Core, machine: Machine) -> bool:
    """Whether the verdict on ``log`` from ``core`` is unknown until a
    replay computes it (DESIGN §13.6, rule 7).

    A closure is deterministic given its log, and a fault is core-local:
    when no armed fault fired during the APP run and ``core`` carries none,
    the replay issues exactly the APP trace and passes.  It still runs
    for a canary probe (no APP trace: its mismatch is the point), a log
    whose APP run fired a fault, an armed validation core, and while
    either core records sites (profiling counts the replay's).  Two
    closure shapes keep it too (``tests/validation/test_known_verdict.py``
    names them): one with a custom ``compare``, which may reject even a
    faithful replay, and one that opens a core scope of its own, whose
    trace does not count all the work the replay would charge the core.
    """
    trace = log.trace
    return (
        trace is None
        or trace.fired
        or trace.nested
        or log.compare is not None
        or core.is_mercurial
        or core.record_sites
        or machine.core(log.core_id).record_sites
    )


class Validator:
    """Re-executes closure logs and reports divergences."""

    def __init__(
        self,
        heap: VersionedHeap,
        clock: Clock,
        detector: Callable[[DetectionEvent], None] | None = None,
        reclaimer: ReclamationManager | None = None,
        obs=None,
    ):
        self._heap = heap
        self._clock = clock
        self._detector = detector
        self._reclaimer = reclaimer
        obs = obs if obs is not None else NULL_OBS
        self._lifecycle = obs.lifecycle
        self.validated_count = 0
        self.mismatch_count = 0
        #: latency of the most recent validation — the cheap point-in-time
        #: lag signal the time-series recorder samples between histogram
        #: windows (a starved validator shows up here immediately).
        self.last_latency = 0.0
        if obs.enabled:
            obs.registry.gauge(
                "orthrus_validation_lag_seconds",
                help="latency of the most recent validation (completion to verdict)",
            ).set_function(lambda: self.last_latency)

    def validate(self, log: ClosureLog, core: Core, replay: bool = True) -> ValidationOutcome:
        """Re-execute ``log`` on ``core`` and compare results.

        ``replay=False`` is for a log whose verdict is known
        (:func:`replay_needed` said so): the pass is recorded and ``core``
        is credited with the APP trace's instructions and cycles, which
        is what the replay would have issued.
        """
        if replay:
            rerun = reexecute(self._heap, log, core)
            result = rerun.result
            val_cycles = rerun.val_cycles
        else:
            core.credit(log.trace)
            result = ComparisonResult.ok()
            val_cycles = log.trace.cycles

        now = self._clock.now()
        log.validated_time = now
        self.validated_count += 1
        if not result.matches:
            self.mismatch_count += 1
            if self._detector is not None:
                self._detector(
                    DetectionEvent(
                        kind="mismatch",
                        closure=log.closure_name,
                        seq=log.seq,
                        time=now,
                        detail=result.detail,
                        app_core=log.core_id,
                        val_core=core.core_id,
                    )
                )
        if self._reclaimer is not None:
            self._reclaimer.closure_finished(log.seq)
        latency = now - log.end_time
        self.last_latency = latency
        self._lifecycle.validated(
            log, core.core_id, result.matches, latency, val_cycles, now
        )
        return ValidationOutcome(
            log=log,
            passed=result.matches,
            detail=result.detail,
            val_cycles=val_cycles,
            latency=latency,
        )

    def drop(self, log: ClosureLog, reason: str, now: float) -> None:
        """A bounded queue or watchdog shed ``log`` unvalidated at ``now``.

        Unlike :meth:`skip` (a sampler *decision*), a drop is overload
        shedding — accounted by reason so the conservation invariant stays
        checkable.  Closes the log's version window either way.
        """
        self._lifecycle.dropped(log, reason, now)
        if self._reclaimer is not None:
            self._reclaimer.closure_finished(log.seq)

    def skip(self, log: ClosureLog, now: float) -> None:
        """Drop a log unvalidated at ``now`` (sampler decision); closes its
        window."""
        self._lifecycle.skipped(log, now)
        if self._reclaimer is not None:
            self._reclaimer.closure_finished(log.seq)
