"""Virtual-time drivers: one driver session, one Orthrus validator loop.

Every deployment of a scenario runs through one :class:`DriverSession`,
which wires the scenario into the discrete-event engine:

* **application threads** are closed-loop clients pinned to distinct app
  cores; a request's service time is the cycles its control+data path
  actually executed on the simulated machine, plus the deployment's
  bookkeeping costs (:mod:`repro.sim.costs`);
* finalisation and the validator-side stages — sampler decision,
  validation cost, the one door out (``settle``) — are the session's too,
  so each exists exactly once (DESIGN.md §10.5 has the stage table);
* **a validation plane** is one validator loop (:func:`validator_process`)
  over policies chosen once at set-up (:class:`Plane`).  The *plain* plane
  is the null set: a shared store (work-conserving, equivalent to
  per-core queues with stealing) drained by immortal validator cores,
  applying the sampler under queueing-delay or memory-budget feedback.
  The vanilla deployment is the session with no plane at all;
* **extensions** — the fault-tolerant policies, telemetry, liveness
  canaries, audit probes, incident response — attach through one table
  (:data:`EXTENSIONS`, DESIGN.md §3); this module imports none of them;
* **the RBV replica** replays full requests *in submission order* on a
  separate healthy server, paying serialization + network transfer per
  batch and stalling the primary when the replication lag bound is hit.

Functional execution (what values are computed, what gets detected) and
timing (when it happens in virtual seconds) are decoupled: closures run
instantaneously in Python while the engine advances virtual time by their
measured cycle cost.  This is the substitution that makes the paper's
wall-clock figures reproducible on a laptop (DESIGN.md §2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.closures.log import ClosureLog
from repro.detection import is_canary_closure
from repro.errors import ConfigurationError
from repro.machine.cpu import Machine
from repro.memory.version import approx_size
from repro.runtime.orthrus import OrthrusRuntime
from repro.runtime.safemode import SafeModePolicy
from repro.runtime.sampling import (
    COVERAGE_REASONS,
    AdaptiveSampler,
    SamplerConfig,
    observe_and_decide,
)
from repro.sim.costs import DEFAULT_COSTS, CostModel
from repro.sim.events import Environment, SimClock, Store
from repro.sim.metrics import RunMetrics
from repro.validation.validator import replay_needed
from repro.validation.watchdog import ValidationLedger

_SENTINEL = object()


@dataclass
class PipelineConfig:
    """Shared knobs for the timing drivers."""

    app_threads: int = 2
    validation_cores: int = 2
    costs: CostModel = field(default_factory=lambda: DEFAULT_COSTS)
    sampler: Any = None  # sampler instance; overrides sampler_factory
    #: called with (sampler_seed) to build the run's sampler; default
    #: builds an AdaptiveSampler
    sampler_factory: Any = None
    #: decorrelates sampler decisions across fault-injection trials while
    #: the workload seed stays fixed (the golden run must match)
    sampler_seed: int | None = None
    safe_mode: bool = False
    #: §3.5 dynamic scaling: start with a single validation thread and let
    #: the scheduler launch more (up to ``validation_cores``) when a
    #: closure's recent validation latency runs 50% above the global
    #: average.  False = all validation cores run from the start.
    dynamic_scaling: bool = False
    #: switch the sampling trigger from queueing delay to a memory budget
    #: (bytes of versions + pending logs) — the Fig 10 experiment
    memory_budget_bytes: float | None = None
    #: pre-armed machine (fault-injection trials); topology must fit
    machine: Machine | None = None
    #: (core_id, Fault) pairs armed *after* application setup/preload —
    #: the campaign injects into the serving phase, not the bulk load
    deferred_faults: tuple = ()
    #: how long validators may keep draining after the application
    #: finishes, as a fraction of the run's duration.  Detection past this
    #: window is not *timely* — the corrupted result has long been
    #: externalized — so remaining logs are dropped, exactly as a
    #: terminating production instance would drop them.
    drain_grace_fraction: float = 0.25
    #: versions reclaimed in batches of this size (§3.6); a huge value
    #: effectively disables the GC (the reclamation ablation)
    reclaim_batch: int = 16
    #: an ``repro.obs.Observability`` handle; None (the default) runs the
    #: pipeline fully uninstrumented
    obs: Any = None
    #: a ``repro.response.ResponseConfig``; when set the Orthrus driver
    #: attaches a ResponseCoordinator (arbitration + quarantine + repair)
    #: and the finalized IncidentReport lands on ``RunResult.incident``
    response: Any = None
    #: a ``repro.obs.TimeSeriesConfig``; with ``obs`` also set, the Orthrus
    #: driver runs a virtual-time sampling process over the registry and
    #: lands the recorder on ``RunResult.timeline``
    timeseries: Any = None
    #: a ``repro.runtime.degradation.FaultToleranceConfig``; when set the
    #: Orthrus driver swaps the reliable shared log store for the
    #: fault-tolerant policies (bounded per-core queues, watchdog
    #: re-dispatch, degradation ladder) in :mod:`repro.harness.chaos`
    fault_tolerance: Any = None
    #: a ``repro.faultinject.ValidatorChaosConfig``; arms chaos faults on
    #: validation cores (implies the fault-tolerant policies)
    validator_faults: Any = None
    #: a ``repro.obs.CanaryConfig``; when set the Orthrus drivers inject
    #: known-corrupt canary closures on its period and hold them to its
    #: detection deadline — the liveness summary lands on
    #: ``RunResult.canary`` and misses on the DetectionReport
    canary: Any = None
    #: an ``repro.obs.AuditConfig`` (or True for defaults); when set the
    #: Orthrus drivers run runtime drift probes (declared vs observed
    #: behavior, DESIGN §14) plus an ExposureLedger, and the terminal
    #: ``orthrus-audit/1`` payload lands on ``RunResult.audit``.
    #: Observational only: no RNG, no virtual-time perturbation of the
    #: functional path — digests are identical with auditing on or off.
    audit: Any = None
    #: closure names the sampler is *declared* to target; the static
    #: auditor cross-checks them against the closure registry (a target
    #: no app registers would be waited on forever)
    sampler_targets: tuple = ()
    seed: int = 1

    def make_sampler(self):
        if self.sampler is not None:
            return self.sampler
        seed = self.sampler_seed if self.sampler_seed is not None else self.seed
        if self.sampler_factory is not None:
            return self.sampler_factory(seed)
        return AdaptiveSampler(SamplerConfig(), seed=seed)

    def build_machine(self, extra_cores: int = 0) -> Machine:
        if self.machine is not None:
            return self.machine
        cores = self.app_threads + max(1, self.validation_cores) + extra_cores
        return Machine(cores_per_node=cores, numa_nodes=1, seed=self.seed)


@dataclass
class RunResult:
    """Metrics plus the functional state a campaign needs to classify."""

    metrics: RunMetrics
    runtime: OrthrusRuntime | None = None
    responses: list[Any] = field(default_factory=list)
    digest: int | None = None
    crashed: bool = False
    crash_reason: str = ""
    rbv_detections: int = 0
    #: finalized ``repro.response.IncidentReport`` when the run was
    #: configured with a response layer (``PipelineConfig.response``)
    incident: Any = None
    #: ``repro.obs.TimeSeriesRecorder`` when the run was configured with
    #: ``PipelineConfig.timeseries`` (and obs); None otherwise
    timeline: Any = None
    #: ``repro.harness.chaos.FaultToleranceReport`` when the run used the
    #: fault-tolerant policies; None otherwise
    ft: Any = None
    #: canary liveness summary dict (``LivenessMonitor.summary()``) when
    #: the run was configured with ``PipelineConfig.canary``
    canary: Any = None
    #: ``orthrus-audit/1`` payload (drift-probe findings + exposure
    #: ledger) when the run was configured with ``PipelineConfig.audit``
    audit: Any = None
    #: the conservation ledger's summary (``ValidationLedger.summary()``)
    #: on every Orthrus run, on either plane; None for vanilla and RBV
    ledger: Any = None

    @property
    def detections(self) -> int:
        if self.runtime is not None:
            return self.runtime.detections
        return self.rbv_detections


def _orthrus_overhead_cycles(log: ClosureLog, costs: CostModel) -> float:
    """Per-closure bookkeeping the modified application pays (§4.2)."""
    versions = len(log.output_versions)
    tracked_accesses = len(log.inputs) + versions
    cycles = costs.log_base_cycles
    cycles += costs.log_per_version_cycles * versions
    cycles += costs.pointer_indirection_cycles * tracked_accesses
    # CRC generation per created version, plus one boundary probe for the
    # payload that entered the closure from the control path (§3.4).
    cycles += costs.checksum_cycles(64) * (versions + 1)
    return cycles


# ----------------------------------------------------------------------
# Extensions: one attachment table
# ----------------------------------------------------------------------
#: Every extension of the paper core (DESIGN §3), one row each, filled once
#: by ``repro.harness``.  A row is called with each Orthrus session before
#: the scenario is built and returns the run's attachment, or None when the
#: run's config does not ask for the extension.  An attachment defines any
#: of :data:`HOOKS`; the session binds each hook to one tuple, in the
#: table's order:
#:
#: ``plane()``
#:     the validation-plane policies (:class:`Plane`), or None; the first
#:     one chosen replaces the plain plane
#: ``observe()``
#:     the plane, its gauges and its processes (apps, pool, scaler,
#:     ticker) exist; a process started here precedes every ``start`` one
#: ``start(submit)``
#:     start processes; ``submit`` is the plane's enqueue for probes
#: ``verdict(core_id, outcome)``
#:     each verdict :meth:`DriverSession.reexecute` reaches
#: ``exposed(closure, reason, seconds)``
#:     an organic log left unprotected (skip, drop, CRC fallback,
#:     re-dispatch backoff; DESIGN §14)
#: ``finish(result)``
#:     the run is over: settle, and write onto the :class:`RunResult`
EXTENSIONS: list[Callable[["DriverSession"], Any]] = []
HOOKS = ("plane", "observe", "start", "verdict", "exposed", "finish")


# ----------------------------------------------------------------------
# The driver session
# ----------------------------------------------------------------------
class DriverSession:
    """One deployment of a scenario in virtual time: everything the
    vanilla and Orthrus drivers do identically.

    The session owns set-up (:meth:`open`), the application threads, the
    validator-side stages the one validator loop runs — sampler decision,
    validation cost, re-execution, the one door out (:meth:`settle`) —
    and finalisation.  The :class:`Plane` policies supply only what truly
    differs: how a log is admitted, whether dispatches are supervised, and
    how the plane drains; extensions reach it through :attr:`hooks`
    (:data:`EXTENSIONS`).  Per-event code binds what it
    needs to locals before its loop; nothing here is reached through the
    session on a per-instruction path.
    """

    def __init__(self, env: Environment, runtime: OrthrusRuntime,
                 config: PipelineConfig, result: RunResult, sampler):
        self.env = env
        self.runtime = runtime
        self.config = config
        self.result = result
        self.metrics = result.metrics
        self.sampler = sampler
        self.obs = runtime.obs
        #: bytes of closure logs waiting in the plane (with the versioned
        #: heap, the Fig-10 memory signal)
        self.pending_bytes = [0]
        #: seq -> event fired when the log settles; safe-mode holds wait here
        self.done_events: dict[int, Any] = {}
        #: end of the timely-detection window, known once the apps finish
        self.deadline = [float("inf")]
        self.apps_done = False
        #: the plane has nothing further to watch: set by the coordinator
        #: once the apps finish (plain) or the ledger settles (supervised)
        self.quiesced = False
        #: each log entering the plane leaves it once, by :meth:`settle`
        self.ledger = ValidationLedger()
        #: validator cores started and still serving (:class:`ValidatorPool`)
        self.serving: set[int] = set()
        self.supervised = False  # set by the fault-tolerant ``Supervisor``
        self.server: Any = None
        #: the server's ``resident_bytes_extra``, resolved once at open
        self._extra_bytes: Callable[[], int] | None = None
        self.ops: list[Any] = []
        self.safe_policy = SafeModePolicy.off()
        #: the declared validator pool (quarantine may shrink the scheduler's)
        self.val_cores = [c.core_id for c in runtime.scheduler.validation_cores]
        #: hook name -> the attached extensions' hooks, in table order
        self.hooks: dict[str, tuple] = dict.fromkeys(HOOKS, ())
        self._request_logs: list[ClosureLog] = []
        self._responses: dict[int, Any] = {}
        #: the exposure window one skipped validation opens: the key stays
        #: unprotected until its next validation opportunity, which the
        #: sampler bounds by its staleness threshold (DESIGN §14)
        self.stale_s = float(
            getattr(getattr(sampler, "config", None), "staleness_threshold", 2e-3)
        )
        self._dispatch_s = config.costs.seconds(
            config.costs.validation_dispatch_cycles
        )

    # -- set-up ----------------------------------------------------------
    @classmethod
    def open(cls, scenario, n_ops: int, config: PipelineConfig,
             orthrus: bool = True) -> "DriverSession":
        """Build machine, runtime and server, preload, arm deferred faults
        and generate the op stream.  A set-up crash comes back as
        ``session.result.crashed`` with a ``setup:`` reason.

        ``orthrus=False`` is the unmodified application: no checksums, no
        held versions, no sampler and no extension.
        """
        env = Environment()
        machine = config.build_machine()
        n_val = config.validation_cores if orthrus else 1
        # The unmodified application has no Orthrus knobs to honour.
        knobs = (
            dict(reclaim_batch=config.reclaim_batch, obs=config.obs) if orthrus else {}
        )
        runtime = OrthrusRuntime(
            machine=machine,
            app_cores=list(range(config.app_threads)),
            validation_cores=[config.app_threads + i for i in range(n_val)],
            clock=SimClock(env),
            mode="external",
            checksums=orthrus,
            hold_versions=orthrus,
            **knobs,
        )
        session = cls(
            env, runtime, config,
            RunResult(metrics=RunMetrics(), runtime=runtime),
            config.make_sampler() if orthrus else None,
        )
        if orthrus:
            session.attach()
        server = scenario.build(runtime)
        runtime._hold_versions = False  # setup closures are not validated
        try:
            scenario.setup(server)
        except Exception as exc:
            session.result.crashed = True
            session.result.crash_reason = f"setup: {type(exc).__name__}: {exc}"
            return session
        runtime._hold_versions = orthrus
        for core_id, fault in config.deferred_faults:
            machine.arm(core_id, fault)
        session.server = server
        session._extra_bytes = getattr(server, "resident_bytes_extra", None)
        session.ops = scenario.make_ops(n_ops, config.seed)
        session.safe_policy = SafeModePolicy(
            enabled=config.safe_mode,
            externalizing=frozenset(scenario.externalizing),
        )
        if orthrus:
            runtime._on_log = session._request_logs.append
        return session

    def attach(self) -> None:
        """Bind :data:`EXTENSIONS` to this run: one tuple per hook, in table
        order.  Runs before the scenario is built, so an extension that
        watches the runtime (incident response) sees every closure."""
        attached = [a for a in (row(self) for row in EXTENSIONS) if a is not None]
        self.hooks = {
            hook: tuple(getattr(a, hook) for a in attached if hasattr(a, hook))
            for hook in HOOKS
        }

    # -- memory ----------------------------------------------------------
    def track_memory(self) -> None:
        metrics, heap, extra_bytes = self.metrics, self.runtime.heap, self._extra_bytes
        extra = extra_bytes() if extra_bytes is not None else 0
        live = heap.live_bytes + extra
        if live > metrics.peak_live_bytes:
            metrics.peak_live_bytes = live
        versioned = heap.versioned_bytes + self.pending_bytes[0] + extra
        if versioned > metrics.peak_versioned_bytes:
            metrics.peak_versioned_bytes = versioned

    def memory_in_use(self) -> float:
        return self.runtime.heap.versioned_bytes + self.pending_bytes[0]

    # -- application side --------------------------------------------------
    def start_apps(self, submit=None) -> list[Any]:
        """Spawn the closed-loop application threads.

        ``submit(log)`` is the plane's enqueue; it returns the events the
        producer must wait out before the log counts as enqueued (none for
        an unbounded store, poll timeouts under block-producer
        backpressure).  The vanilla deployment produces no logs and passes
        nothing.
        """
        return [
            self.env.process(self.app_thread(i, submit))
            for i in range(self.config.app_threads)
        ]

    def app_thread(self, thread_id: int, submit):
        env, runtime, lifecycle = self.env, self.runtime, self.obs.lifecycle
        metrics, result, costs = self.metrics, self.result, self.config.costs
        server, ops, responses = self.server, self.ops, self._responses
        request_logs, done_events = self._request_logs, self.done_events
        must_hold, track_memory = self.safe_policy.must_hold, self.track_memory
        core = runtime.machine.core(thread_id)
        for index in range(thread_id, len(ops), self.config.app_threads):
            began = env.now
            before = core.total_cycles
            with runtime.bind_core(thread_id):
                try:
                    responses[index] = server.handle(ops[index])
                except Exception as exc:
                    result.crashed = True
                    result.crash_reason = f"{type(exc).__name__}: {exc}"
                    return
            logs = list(request_logs)
            request_logs.clear()
            cycles = core.total_cycles - before + costs.control_path_cycles
            overhead = 0
            for log in logs:
                overhead += _orthrus_overhead_cycles(log, costs)
            cycles += overhead
            yield env.timeout(costs.seconds(cycles))
            hold: list[Any] = []
            for log in logs:
                event = env.event()
                done_events[log.seq] = event
                if must_hold(log.closure_name):
                    hold.append(event)
                yield from submit(log)
                # Closure execution plus the control path plus any producer
                # stall, up to the simulated enqueue — so queue.wait tiles
                # against it exactly.
                lifecycle.handed_off(log, env.now, core=thread_id)
            if hold:
                # Safe mode (static, or engaged by the degradation ladder):
                # withhold externalizing results until their logs settle
                # (§3.5).
                yield env.all_of(hold)
            latency = env.now - began
            metrics.request_latency.add(latency)
            metrics.operations += 1
            lifecycle.served(latency)
            track_memory()

    # -- validator-side stages ---------------------------------------------
    def decide(self, log: ClosureLog, now: float):
        """Sampler stage for one dequeued log; None for a canary.

        Canary probes bypass the sampler — a skipped canary proves nothing
        about plane liveness — and stay out of its load signal.
        """
        if is_canary_closure(log.closure_name):
            self.obs.lifecycle.waited(log, now)
            return None
        budget = self.config.memory_budget_bytes
        return observe_and_decide(
            self.sampler, log, now, now - log.enqueue_time, self.obs,
            memory=None if budget is None else (self.memory_in_use(), budget),
        )

    def compare_cycles(self, log: ClosureLog) -> float:
        """Cost of the bitwise comparison over the log's actual output
        payloads — significant for Phoenix's container-sized outputs,
        negligible for KV items.  Measured at dispatch: once the log
        settles its versions may be reclaimed, and a version reclaimed
        before then is a reclamation-safety bug, so the read raises."""
        heap = self.runtime.heap
        output_bytes = log.admitted_bytes
        for vid in log.output_versions:
            output_bytes += heap.version(vid).size
        return self.config.costs.compare_cycles_per_byte * output_bytes

    def validation_cycles(self, log: ClosureLog, core, exec_cycles: float,
                          compare_cycles: float) -> float:
        """What validating ``log`` on ``core`` costs: dispatch, the
        re-execution itself, the comparison, and NUMA distance."""
        costs = self.config.costs
        busy = costs.validation_dispatch_cycles + exec_cycles
        busy += compare_cycles
        # Canary probes carry a synthetic app core (-1): no NUMA placement.
        if log.core_id >= 0 and (
            self.runtime.machine.core(log.core_id).numa_node != core.numa_node
        ):
            # Cross-socket validation: the log and its versions are cold
            # in this core's L3 (§3.5 prefers same-node placement).
            busy += costs.cross_numa_penalty_cycles
        return busy

    def reexecute(self, log: ClosureLog, core):
        """The verdict on ``log`` from ``core`` and who hears about it: a
        functional replay where a fault can make it differ, the known pass
        (same cycles, same instructions charged) everywhere else."""
        runtime = self.runtime
        outcome = runtime.validator.validate(
            log, core, replay=replay_needed(log, core, runtime.machine)
        )
        for hook in self.hooks["verdict"]:
            hook(core.core_id, outcome)
        return outcome

    def expose(self, log: ClosureLog, reason: str, seconds: float) -> None:
        """An organic log left unprotected for ``seconds`` (DESIGN §14)."""
        for hook in self.hooks["exposed"]:
            hook(log.closure_name, reason, seconds)

    def settle(self, log: ClosureLog, state: str, now: float, reason: str = "",
               outcome=None, core_id: int = -1, dispatched_at: float = 0.0,
               **validate_args) -> None:
        """The one door out of the validation plane: ``state`` is one of
        the ledger's terminal states — validated, skipped, dropped,
        fallback — on either plane (DESIGN §10.2 has the table): ledger,
        window close, coverage, exposure, terminal span, release (a skip's
        the loop does, once the skip's cost has elapsed).  ``reason`` is a
        skip's or a drop's; a verdict brings its outcome, core, dispatch
        instant and ``validate`` span args.  A canary gets its ledger
        entry, its spans and its release, and nothing else (§11.3)."""
        lifecycle, metrics = self.obs.lifecycle, self.metrics
        seq = log.seq
        user = not is_canary_closure(log.closure_name)
        if state == "validated":
            self.ledger.validated(seq)
            log.validated_time = now
            if user:
                self.sampler.on_validated(log, now)
                latency = now - log.enqueue_time
                metrics.validation_latency.add(latency)
                self.runtime.latency.record(log.closure_name, latency)
                metrics.validated += 1
            # The causal chain tiles: dispatch covers the fixed dispatch
            # cost, validate the re-execution + comparison (+ any cross-NUMA
            # penalty) up to the verdict instant.
            validate_from = dispatched_at + self._dispatch_s
            lifecycle.dispatched(log, dispatched_at, validate_from, core_id)
            lifecycle.verdict(log, outcome.passed, validate_from, now,
                              core=core_id, **validate_args)
        elif state == "skipped":  # canaries bypass the sampler and the ladder
            self.ledger.skipped(seq)
            metrics.skipped += 1
            self.runtime.validator.skip(log, now)
            self.expose(log, "coverage-shed" if reason == "coverage-shed" else "sampled-out",
                        self.stale_s)
            lifecycle.sampled_out(log, now, reason)
            return
        elif state == "dropped":
            self.ledger.dropped(seq, reason)
            deadline = reason == "deadline"
            lifecycle.abandoned(log, now, reason)
            if user:  # a deadline drop counts as a skip (on the plain plane, closes as one)
                if deadline:
                    metrics.skipped += 1
                if deadline and not self.supervised:
                    self.runtime.validator.skip(log, now)
                else:
                    self.runtime.validator.drop(log, reason, now)
                # queue time burned + staleness window
                waited = max(0.0, now - log.enqueue_time) if log.enqueue_time else 0.0
                self.expose(log, reason, waited + self.stale_s)
        else:  # the CRC checksum fallback
            self.ledger.fallback(seq)
            self.runtime.reclaimer.closure_finished(seq)
            if user:
                # CRC checks catch bit-flips but not mercurial compute
                # errors: partial coverage, honestly accounted as exposure.
                self.expose(log, "checksum-only", self.stale_s)
            lifecycle.fell_back(log, now)
        self.release(log)

    def release(self, log: ClosureLog) -> None:
        event = self.done_events.pop(log.seq, None)
        if event is not None:
            event.succeed()

    # -- finalisation ------------------------------------------------------
    def finish(self) -> RunResult:
        result = self.result
        self.metrics.detections = self.runtime.detections
        result.responses = [self._responses.get(i) for i in range(len(self.ops))]
        for hook in self.hooks["finish"]:
            hook(result)
        result.digest = self.server.state_digest() if not result.crashed else None
        return result


# ----------------------------------------------------------------------
# The validation plane: policies and the one validator loop
# ----------------------------------------------------------------------
class StoreAdmission:
    """Admission into one reliable, unbounded, work-conserving shared
    ``Store`` (per-core queues with stealing, in effect), closed by one
    sentinel per validator.  The paper figures and Phoenix run it."""

    def __init__(self, session: DriverSession):
        self.env, self.pending_bytes = session.env, session.pending_bytes
        self.ledger, self.lifecycle = session.ledger, session.obs.lifecycle
        self.store = Store(self.env)
        self.wait, self.hand_back = self.store.get, self.store.unget

    def enqueue(self, log):
        self.ledger.enqueue(log.seq)
        log.enqueue_time = self.env.now
        log.admitted_bytes = log.approx_bytes()
        self.pending_bytes[0] += log.admitted_bytes
        self.store.put(log)
        return ()  # the store is unbounded: nothing for the producer to wait out

    submit_canary = enqueue

    def submit(self, log):
        """``enqueue`` and, for organic logs only, the ``enqueued`` transition."""
        waits = self.enqueue(log)
        self.lifecycle.enqueued(log, "store", self.store, self.env.now)
        return waits

    @staticmethod
    def claim(log, _core_id):
        return log

    def shut(self, validators):
        """One sentinel per validator, then wait until all have left — a
        reserve core started meanwhile in a retired one's place (it takes
        that one's sentinel) included."""
        for _ in validators:
            self.store.put(_SENTINEL)
        while not all(validator.triggered for validator in validators):
            yield self.env.all_of(validators)


class ValidatorFaultKind(enum.Enum):
    """How an armed validation core fails (:mod:`repro.faultinject.validator_faults`)."""

    CRASH = "crash"
    HANG = "hang"
    SLOWDOWN = "slowdown"
    VERDICT_LOSS = "verdict-loss"


@dataclass(frozen=True, slots=True)
class ValidatorFault:
    """One armed fault on one validation core."""

    kind: ValidatorFaultKind
    core_id: int
    #: virtual time the fault arms (0.0 = from the start)
    at: float = 0.0
    #: how long it stays armed; None = for the rest of the run
    duration: float | None = None
    #: validation time multiplier for SLOWDOWN faults
    slowdown_factor: float = 8.0

    def active(self, now: float) -> bool:
        if now < self.at:
            return False
        return self.duration is None or now < self.at + self.duration


class ValidatorFaultBox:
    """Runtime lookup of armed validator faults, one per core."""

    def __init__(self, faults: tuple[ValidatorFault, ...] = ()):
        self._by_core: dict[int, ValidatorFault] = {}
        for fault in faults:
            if fault.core_id in self._by_core:
                raise ConfigurationError(
                    f"core {fault.core_id} assigned two validator faults"
                )
            self._by_core[fault.core_id] = fault

    def fault_for(self, core_id: int, now: float) -> ValidatorFault | None:
        fault = self._by_core.get(core_id)
        if fault is not None and fault.active(now):
            return fault
        return None

    def disarm(self, core_id: int) -> None:
        """Clear a core's fault (probation readmits a repaired core)."""
        self._by_core.pop(core_id, None)

    @property
    def faulted_cores(self) -> list[int]:
        return sorted(self._by_core)

    @property
    def faults(self) -> tuple[ValidatorFault, ...]:
        return tuple(self._by_core[core] for core in sorted(self._by_core))

    def __len__(self) -> int:
        return len(self._by_core)


@dataclass
class Plane:
    """The validation-plane policies a run chose at set-up (DESIGN §10.5):
    the null set — :class:`StoreAdmission`, no supervisor, no ladder, no
    armed validator faults — runs the paper figures; an extension's
    ``plane`` hook chooses others (the fault-tolerant policies of
    :mod:`repro.harness.chaos`)."""

    admission: Any
    supervisor: Any = None
    ladder: Any = None
    faults: ValidatorFaultBox = field(default_factory=ValidatorFaultBox)


def validator_process(session: DriverSession, core, plane: Plane,
                      on_step: Callable[[], None] = lambda: None,
                      retire: Callable[[int], None] = lambda _core_id: None):
    """One validation core: dequeue → sample → re-execute (§3.3).

    The only validator loop; ``plane`` says how.  Ends on the Store's
    sentinel, on quarantine (handing back what it dequeued) or when an
    armed fault kills it; ``retire(core_id)`` hears of the last three.
    Logs dequeued past the session's deadline (the end of the
    timely-detection window) are dropped unvalidated.
    """
    env, costs, scheduler = session.env, session.config.costs, session.runtime.scheduler
    pending_bytes, deadline = session.pending_bytes, session.deadline
    decide, reexecute, settle = session.decide, session.reexecute, session.settle
    compare_cycles, validation_cycles = session.compare_cycles, session.validation_cycles
    admission, supervisor, ladder = plane.admission, plane.supervisor, plane.ladder
    wait, claim = admission.wait, admission.claim
    watchdog = supervisor.watchdog if supervisor is not None else None
    faults, lifecycle = plane.faults, session.obs.lifecycle
    armed = len(faults) > 0
    skip_s = costs.seconds(costs.skip_cycles)
    core_id = core.core_id
    while True:
        item = yield wait()
        if item is _SENTINEL:
            return
        if core not in scheduler.validation_cores:
            # Quarantined: hand what was dequeued to a healthy peer and leave.
            admission.hand_back(item)
            retire(core_id)
            return
        now = env.now
        log = claim(item, core_id)
        fault = faults.fault_for(core_id, now) if armed else None
        kind = fault.kind if fault is not None else None
        if kind is ValidatorFaultKind.CRASH:
            # Die mid-dispatch, stranding the log until the watchdog expires it.
            retire(core_id)
            if log is not None:
                pending_bytes[0] -= log.admitted_bytes
                watchdog.dispatched(log, core_id, now)
            return
        if log is None:
            continue  # orphan token: its log was evicted, handed off or stolen
        pending_bytes[0] -= log.admitted_bytes
        if now > deadline[0]:
            settle(log, "dropped", now, "deadline")
            continue
        if kind is ValidatorFaultKind.HANG:
            # Block forever holding the dispatched log.
            retire(core_id)
            lifecycle.waited(log, now)
            watchdog.dispatched(log, core_id, now)
            yield env.event()
            return  # pragma: no cover — the event never fires
        # None for a canary: it bypasses the sampler but not the dispatch
        # path, so a dead validator strands it — ``canary.missed``.
        decision = decide(log, now)
        if ladder is not None and ladder.checksum_only:
            # CHECKSUM_ONLY rung: CRC boundary checks, no re-execution.
            busy = sum(
                costs.checksum_cycles(64)
                for _ in range(max(1, len(log.output_versions)))
            )
            yield env.timeout(costs.seconds(busy))
            supervisor.checksum_fallback(log, env.now)
            on_step()
            continue
        shed_for_coverage = (
            decision is not None
            and ladder is not None
            and ladder.coverage_only
            and decision.reason not in COVERAGE_REASONS
        )
        if decision is not None and (not decision.validate or shed_for_coverage):
            # Counted when decided: a supervised run may stop mid-skip.
            settle(log, "skipped", now,
                   "coverage-shed" if shed_for_coverage else decision.reason)
            yield env.timeout(skip_s)
            session.release(log)
        elif supervisor is None:
            # Unsupervised: the functional replay happens at dispatch; the
            # engine then advances by what it cost.
            compare = compare_cycles(log)
            outcome = reexecute(log, core)
            busy = validation_cycles(log, core, outcome.val_cycles, compare)
            yield env.timeout(costs.seconds(busy))
            settle(log, "validated", env.now, outcome=outcome, core_id=core_id,
                   dispatched_at=now)
        else:
            # Supervised: advance by about what the APP run cost under the
            # watchdog's deadline; the verdict can be lost or duplicated
            # meanwhile, so the replay happens at completion.
            watchdog.dispatched(log, core_id, now)
            busy = validation_cycles(log, core, log.app_cycles, compare_cycles(log))
            if kind is ValidatorFaultKind.SLOWDOWN:
                busy *= fault.slowdown_factor
            yield env.timeout(costs.seconds(busy))
            # A lost verdict stays in flight for the watchdog to expire; a
            # completion the watchdog already re-dispatched is a duplicate.
            if (kind is not ValidatorFaultKind.VERDICT_LOSS
                    and watchdog.completed(log.seq, env.now)):
                settle(log, "validated", env.now, outcome=reexecute(log, core),
                       core_id=core_id, dispatched_at=now,
                       level=ladder.level.label if ladder is not None else "normal")
        on_step()


class ValidatorPool:
    """The scaling policy (§3.5): which validation cores run a validator.

    Static starts every core.  Dynamic starts one and keeps the rest in
    reserve, starting one whenever some closure's recent validation
    latency runs 50% above the global average (:meth:`scale`), and one in
    place of a started validator that stops serving (:meth:`retire`) —
    else the death of the one started validator would strand the plane
    while the reserve sits idle.
    """

    def __init__(self, session: DriverSession, plane: Plane):
        self.session, self.plane = session, plane
        val_cores = session.val_cores
        self.reserve = val_cores[1:] if session.config.dynamic_scaling else []
        self.validators: list[Any] = []
        for core_id in val_cores[:len(val_cores) - len(self.reserve)]:
            self.spawn(core_id)

    def spawn(self, core_id: int) -> None:
        session = self.session
        session.serving.add(core_id)
        self.validators.append(session.env.process(validator_process(
            session, session.runtime.machine.core(core_id), self.plane,
            session.track_memory, self.retire,
        )))

    def retire(self, core_id: int) -> None:
        """A started validator stopped serving (each does so at most once)."""
        self.session.serving.discard(core_id)
        if self.reserve:
            self.spawn(self.reserve.pop(0))

    def scale(self):
        session = self.session
        while self.reserve and not session.apps_done:
            yield session.env.timeout(5e-6)
            # Re-checked after the wait: a retirement may have spent the
            # reserve, and once the apps are done the plain plane's drain
            # has sent one sentinel per validator — none for a late start.
            if (self.reserve and not session.apps_done
                    and session.runtime.latency.closures_needing_help()):
                self.spawn(self.reserve.pop(0))


# ----------------------------------------------------------------------
# Vanilla
# ----------------------------------------------------------------------
def run_vanilla_server(scenario, n_ops: int, config: PipelineConfig) -> RunResult:
    """The unmodified application: no logging, no checksums, no validator."""
    session = DriverSession.open(scenario, n_ops, config, orthrus=False)
    if session.result.crashed:
        return session.result
    env = session.env
    env.run(until=env.all_of(session.start_apps()))
    session.metrics.duration = env.now
    return session.finish()


# ----------------------------------------------------------------------
# Orthrus
# ----------------------------------------------------------------------
def run_orthrus_server(scenario, n_ops: int, config: PipelineConfig) -> RunResult:
    """The Orthrus deployment: logging + asynchronous sampled validation,
    over the plain plane unless an extension's ``plane`` hook chooses
    other policies (DESIGN §10.5)."""
    if config.validation_cores < 1:
        raise ConfigurationError("Orthrus needs at least one validation core")
    session = DriverSession.open(scenario, n_ops, config)
    if session.result.crashed:
        return session.result
    env, obs, hooks = session.env, session.obs, session.hooks
    plane = next(filter(None, (choose() for choose in hooks["plane"])), None)
    if plane is None:
        plane = Plane(StoreAdmission(session))
        if obs.enabled:
            # The shared store is the work-conserving analogue of the
            # per-core queues; expose its depth the same way.
            store = plane.admission.store
            obs.registry.gauge(
                "orthrus_log_store_depth",
                help="pending closure logs in the shared validation store",
            ).set_function(lambda: float(len(store)))
    supervisor = plane.supervisor
    app_threads = session.start_apps(plane.admission.submit)
    pool = ValidatorPool(session, plane)
    if config.dynamic_scaling:
        env.process(pool.scale())
    if supervisor is not None:
        env.process(supervisor.ticker())
    for observe in hooks["observe"]:
        observe()
    for start in hooks["start"]:
        start(plane.admission.submit_canary)

    def coordinator():
        yield env.all_of(app_threads)
        # Every app thread is done: stamp the duration, open the drain window.
        session.apps_done = True
        session.metrics.duration = env.now
        session.deadline[0] = env.now * (1 + config.drain_grace_fraction)
        if supervisor is None:
            session.quiesced = True
            yield from plane.admission.shut(pool.validators)
        else:
            yield from supervisor.drain()

    env.run(until=env.process(coordinator()))
    result = session.finish()
    result.ledger = session.ledger.summary()
    return result


# ----------------------------------------------------------------------
# RBV
# ----------------------------------------------------------------------
def run_rbv_server(scenario, n_ops: int, config: PipelineConfig) -> RunResult:
    """Replication-based validation: full re-execution on a replica server.

    The replica gets the same number of cores as the application (§4.2)
    but data dependencies force it to replay requests sequentially; the
    primary pays serialization + batched network forwarding and stalls at
    the replication-lag bound.
    """
    # The primary is the unmodified application; detections are the
    # replica's, not a validator's.
    session = DriverSession.open(scenario, n_ops, config, orthrus=False)
    result, metrics, env, ops = session.result, session.metrics, session.env, session.ops
    result.runtime = None
    if result.crashed:
        return result
    primary_runtime, primary = session.runtime, session.server
    primary_machine = primary_runtime.machine
    costs = config.costs
    batch_size = costs.rbv_batch_size
    replica_machine = Machine(
        cores_per_node=config.app_threads + 1, numa_nodes=1, seed=config.seed + 7919
    )
    replica = scenario.build(OrthrusRuntime(
        machine=replica_machine,
        app_cores=list(range(config.app_threads)),
        validation_cores=[config.app_threads],
        clock=SimClock(env),
        mode="external",
        checksums=False,
        hold_versions=False,
    ))
    try:
        scenario.setup(replica)
    except Exception as exc:
        result.crashed = True
        result.crash_reason = f"setup: {type(exc).__name__}: {exc}"
        return result
    responses_by_index: dict[int, Any] = {}
    repl_store = Store(env)
    inflight = [0]
    stall_events: list[Any] = []
    detections = [0]

    def app_thread(thread_id: int):
        core = primary_machine.core(thread_id)
        for index in range(thread_id, len(ops), config.app_threads):
            began = env.now
            op = ops[index]
            before = core.total_cycles
            error: Exception | None = None
            response: Any = None
            with primary_runtime.bind_core(thread_id):
                try:
                    response = primary.handle(op)
                except Exception as exc:
                    error = exc
            responses_by_index[index] = response
            payload = approx_size(response) + approx_size(op.value) + 64
            # Forward at execution time so the replica replays requests in
            # the primary's processing order (§4.1) — forwarding after the
            # service delay would let two primary threads reorder.
            repl_store.put((op, response, error, env.now, payload))
            cycles = core.total_cycles - before + costs.control_path_cycles
            cycles += costs.rbv_primary_overhead_cycles
            cycles += costs.serialize_cycles_per_byte * payload
            yield env.timeout(costs.seconds(cycles))
            inflight[0] += 1
            if inflight[0] > costs.rbv_max_lag:
                # Replication backpressure: the bounded queue is full; the
                # primary blocks until the replica drains half the window
                # (hysteresis — stalled requests wait out whole batch
                # rounds), the source of RBV's enormous tail latencies.
                gate = env.event()
                stall_events.append(gate)
                yield gate
            metrics.request_latency.add(env.now - began)
            metrics.operations += 1
            metrics.peak_live_bytes = max(
                metrics.peak_live_bytes, primary_runtime.heap.live_bytes
            )
            # RBV's memory cost: the full replica state plus the in-flight
            # replication buffer.
            metrics.peak_versioned_bytes = max(
                metrics.peak_versioned_bytes,
                primary_runtime.heap.live_bytes + replica.runtime.heap.live_bytes,
            )
            if error is not None:
                result.crashed = True
                result.crash_reason = f"{type(error).__name__}: {error}"
                return

    def replica_process():
        # Response comparison is per-request; full state digests are only
        # comparable at quiescence (the coordinator's final check) because
        # the primary keeps executing while the replica replays.
        replica_core = replica_machine.core(0)
        while True:
            first = yield repl_store.get()
            if first is _SENTINEL:
                return
            batch = [first]
            stop = False
            while len(batch) < batch_size and len(repl_store):
                item = yield repl_store.get()
                if item is _SENTINEL:
                    stop = True
                    break
                batch.append(item)
            total_bytes = sum(item[4] for item in batch)
            yield env.timeout(costs.network_transfer_s(total_bytes))
            for op, primary_response, primary_error, completed_at, _ in batch:
                before = replica_core.total_cycles
                replica_error: Exception | None = None
                replica_response: Any = None
                with replica.runtime.bind_core(0):
                    try:
                        replica_response = replica.handle(op)
                    except Exception as exc:
                        replica_error = exc
                cycles = replica_core.total_cycles - before + costs.control_path_cycles
                yield env.timeout(costs.seconds(cycles))
                diverged = (
                    type(primary_error) is not type(replica_error)
                    or primary_response != replica_response
                )
                if diverged:
                    detections[0] += 1
                metrics.validation_latency.add(env.now - completed_at)
                metrics.validated += 1
                inflight[0] -= 1
                if inflight[0] <= costs.rbv_max_lag // 2:
                    while stall_events:
                        stall_events.pop(0).succeed()
            if stop:
                return

    threads = [env.process(app_thread(i)) for i in range(config.app_threads)]
    replica_proc = env.process(replica_process())

    def coordinator():
        yield env.all_of(threads)
        metrics.duration = env.now
        repl_store.put(_SENTINEL)
        yield replica_proc
        if not result.crashed and primary.state_digest() != replica.state_digest():
            detections[0] += 1

    env.run(until=env.process(coordinator()))
    metrics.detections = detections[0]
    result.rbv_detections = detections[0]
    result.responses = [responses_by_index.get(i) for i in range(len(ops))]
    result.digest = primary.state_digest() if not result.crashed else None
    return result
