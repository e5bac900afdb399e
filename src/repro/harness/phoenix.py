"""Virtual-time drivers for the Phoenix batch workload (§4.2 "Phoenix").

Phoenix is measured by *job time* rather than throughput.  The drivers
mirror the server drivers' structure: map tasks fan out over the
application worker cores, a barrier precedes the reduce phase, and the
deployment variant decides what runs beside them:

* vanilla — nothing;
* Orthrus — the closure logs (one per task, with large containers) feed
  the shared validator cores, exercising the big-payload comparison path;
* RBV — each task's output container is serialized and forwarded to a
  replica that re-executes the whole job sequentially, which is where the
  paper's 51% throughput drop and ~513 ms validation latencies come from.
"""

from __future__ import annotations

from typing import Any

from repro.apps.phoenix.framework import map_task, reduce_task
from repro.closures.log import ClosureLog
from repro.machine.cpu import Machine
from repro.memory.version import approx_size
from repro.runtime.orthrus import OrthrusRuntime
from repro.sim.events import Environment, SimClock, Store
from repro.sim.metrics import RunMetrics
from repro.harness.pipeline import (
    DriverSession,
    PipelineConfig,
    Plane,
    RunResult,
    StoreAdmission,
    _orthrus_overhead_cycles,
    _SENTINEL,
    validator_process,
)


def _build_runtime(env, machine, config, orthrus: bool) -> OrthrusRuntime:
    n_val = max(1, config.validation_cores) if orthrus else 1
    return OrthrusRuntime(
        machine=machine,
        app_cores=list(range(config.app_threads)),
        validation_cores=[config.app_threads + i for i in range(n_val)],
        clock=SimClock(env),
        mode="external",
        checksums=orthrus,
        hold_versions=orthrus,
        reclaim_batch=4,
        obs=config.obs if orthrus else None,
    )


def _run_tasks(env, runtime, machine, config, tasks, on_task_done,
               extra_cycles=None, charge_overhead=True, crash=None):
    """Fan a list of thunks out over the app worker cores; returns the
    barrier event.  Each thunk returns ``(result, logs)``; ``extra_cycles``
    lets a deployment charge additional per-task work (RBV serialization).
    A task that raises records the failure into ``crash`` (fail-stop) and
    retires its worker."""
    store = Store(env)
    for index, task in enumerate(tasks):
        store.put((index, task))
    for _ in range(config.app_threads):
        store.put(_SENTINEL)

    def worker(thread_id: int):
        core = machine.core(thread_id)
        while True:
            item = yield store.get()
            if item is _SENTINEL:
                return
            if crash is not None and crash:
                continue  # job is crashing; drain remaining tasks unrun
            index, thunk = item
            before = core.total_cycles
            try:
                with runtime.bind_core(thread_id), runtime:
                    result, logs = thunk()
            except Exception as exc:
                if crash is not None:
                    crash.append(f"{type(exc).__name__}: {exc}")
                continue
            cycles = core.total_cycles - before
            if charge_overhead:
                cycles += sum(
                    _orthrus_overhead_cycles(log, config.costs) for log in logs
                )
            if extra_cycles is not None:
                cycles += extra_cycles(result)
            yield env.timeout(config.costs.seconds(cycles))
            on_task_done(index, result, logs, env.now)

    return env.all_of(
        [env.process(worker(i)) for i in range(config.app_threads)]
    )


def run_phoenix(
    scenario,
    n_words: int,
    config: PipelineConfig,
    variant: str = "orthrus",
) -> RunResult:
    """Run the Phoenix word-count job under one deployment variant."""
    if variant not in ("vanilla", "orthrus", "rbv"):
        raise ValueError(f"unknown variant {variant!r}")
    env = Environment()
    machine = config.build_machine()
    orthrus = variant == "orthrus"
    runtime = _build_runtime(env, machine, config, orthrus=orthrus)
    job = scenario.build(runtime)
    phx = job.job
    for core_id, fault in config.deferred_faults:
        machine.arm(core_id, fault)
    chunks = scenario.make_chunks(n_words, config.seed)
    metrics = RunMetrics()
    result = RunResult(metrics=metrics, runtime=runtime if orthrus else None)

    captured_logs: list[ClosureLog] = []
    runtime._on_log = captured_logs.append

    session = DriverSession(env, runtime, config, result, config.make_sampler())
    pending_bytes, deadline = session.pending_bytes, session.deadline
    admission = StoreAdmission(session)
    validators = []
    if orthrus:
        plane = Plane(admission)
        validators = [
            env.process(validator_process(session, machine.core(config.app_threads + i), plane))
            for i in range(config.validation_cores)
        ]

    # RBV replica: an independent second job instance replaying tasks.
    replica_runtime = None
    replica_job = None
    repl_store = Store(env)
    rbv_detections = [0]
    if variant == "rbv":
        replica_machine = Machine(
            cores_per_node=config.app_threads + 1, numa_nodes=1, seed=config.seed + 31
        )
        replica_runtime = _build_runtime(env, replica_machine, config, orthrus=False)
        replica_job = scenario.build(replica_runtime)

    def on_task_done(index, result_ptr, logs, now):
        if orthrus:
            for log in logs:
                admission.enqueue(log)
        if variant == "rbv" and result_ptr is not None:
            payload = runtime.heap.latest(result_ptr.obj_id).value
            repl_store.put((index, payload, approx_size(payload), now))
        metrics.peak_live_bytes = max(metrics.peak_live_bytes, runtime.heap.live_bytes)
        metrics.peak_versioned_bytes = max(
            metrics.peak_versioned_bytes,
            runtime.heap.versioned_bytes + pending_bytes[0],
        )

    def make_map_thunk(chunk_ptr):
        def thunk():
            before = len(captured_logs)
            out = map_task(phx.map_fn, chunk_ptr, phx.n_partitions)
            logs = captured_logs[before:]
            del captured_logs[before:]
            return out, logs

        return thunk

    def make_reduce_thunk(containers, partition):
        def thunk():
            before = len(captured_logs)
            out = reduce_task(phx.reduce_fn, containers, partition)
            logs = captured_logs[before:]
            del captured_logs[before:]
            return out, logs

        return thunk

    map_results: dict[int, Any] = {}
    reduce_results: dict[int, Any] = {}

    def rbv_extra(result_ptr):
        # RBV primary: replication bookkeeping plus serializing the task's
        # (large) output container for the replica.
        cycles = config.costs.rbv_primary_overhead_cycles
        if result_ptr is not None:
            payload = runtime.heap.latest(result_ptr.obj_id).value
            cycles += config.costs.serialize_cycles_per_byte * approx_size(payload)
        return cycles

    extra = rbv_extra if variant == "rbv" else None

    crash: list[str] = []

    def driver():
        core = machine.core(0)
        # Split phase: control path, charged to core 0.
        before = core.total_cycles
        try:
            with runtime.bind_core(0), runtime:
                chunk_ptrs = phx.split(chunks)
        except Exception as exc:
            result.crashed = True
            result.crash_reason = f"{type(exc).__name__}: {exc}"
            metrics.duration = env.now
            return
        # (Under RBV the replica reads the same input dataset from shared
        # storage — only task outputs are forwarded for comparison.)
        split_cycles = core.total_cycles - before
        yield env.timeout(config.costs.seconds(split_cycles))

        def record_map(index, out, logs, now):
            map_results[index] = out
            on_task_done(index, out, logs, now)

        map_tasks = [
            make_map_thunk(chunk_ptr) for chunk_ptr in chunk_ptrs
        ]
        yield _run_tasks(env, runtime, machine, config, map_tasks, record_map,
                         extra_cycles=extra, charge_overhead=orthrus, crash=crash)
        if crash:
            result.crashed = True
            result.crash_reason = crash[0]
            metrics.duration = env.now
            return

        containers = tuple(map_results[i] for i in range(len(map_tasks)))

        def record_reduce(index, out, logs, now):
            reduce_results[index] = out
            on_task_done(len(map_tasks) + index, out, logs, now)

        reduce_tasks = [
            make_reduce_thunk(containers, partition)
            for partition in range(phx.n_partitions)
        ]
        yield _run_tasks(env, runtime, machine, config, reduce_tasks, record_reduce,
                         extra_cycles=extra, charge_overhead=orthrus, crash=crash)
        if crash:
            result.crashed = True
            result.crash_reason = crash[0]
            metrics.duration = env.now
            return

        if config.safe_mode and orthrus:
            # Phoenix reveals results only at the end: safe mode means the
            # merge waits for every outstanding validation (§3.5).
            holds = list(session.done_events.values())
            if holds:
                yield env.all_of(holds)
        phx.reduce_outputs = [
            reduce_results[i] for i in range(phx.n_partitions)
        ]
        job.result = phx.merge()
        metrics.operations = len(map_tasks) + len(reduce_tasks)
        metrics.duration = env.now

    def make_replica_workers():
        """Parallel re-execution on the replica server.

        Phoenix map tasks are independent, so — unlike the KV stores,
        where data dependencies force sequential replay — the replica
        parallelizes them across its cores.  Reduce replays still wait for
        every map replay (the same barrier the job itself has).
        """
        with replica_runtime.bind_core(0), replica_runtime:
            replica_ptrs = replica_job.job.split(chunks)
        maps_total = len(replica_ptrs)
        replica_maps: dict[int, Any] = {}
        maps_gate = env.event()

        def worker(worker_id: int):
            core = replica_runtime.machine.core(worker_id)
            while True:
                item = yield repl_store.get()
                if item is _SENTINEL:
                    return
                index, primary_payload, payload_bytes, completed_at = item
                yield env.timeout(config.costs.network_transfer_s(payload_bytes))
                if index >= maps_total and not maps_gate.triggered:
                    yield maps_gate
                before = core.total_cycles
                with replica_runtime.bind_core(worker_id), replica_runtime:
                    if index < maps_total:
                        out = map_task(
                            replica_job.job.map_fn,
                            replica_ptrs[index],
                            phx.n_partitions,
                        )
                    else:
                        containers = tuple(
                            replica_maps[i] for i in range(maps_total)
                        )
                        out = reduce_task(
                            replica_job.job.reduce_fn,
                            containers,
                            index - maps_total,
                        )
                cycles = core.total_cycles - before
                # Deep structural comparison of the big containers — the
                # expensive equivalence checks §4.2 attributes to RBV.
                cycles += config.costs.compare_cycles_per_byte * payload_bytes * 4
                yield env.timeout(config.costs.seconds(cycles))
                if index < maps_total:
                    replica_maps[index] = out
                    if len(replica_maps) == maps_total and not maps_gate.triggered:
                        maps_gate.succeed()
                replica_payload = replica_runtime.heap.latest(out.obj_id).value
                if replica_payload != primary_payload:
                    rbv_detections[0] += 1
                metrics.validation_latency.add(env.now - completed_at)
                metrics.validated += 1

        return [env.process(worker(i)) for i in range(config.app_threads)]

    driver_proc = env.process(driver())
    replica_procs = []
    if variant == "rbv":
        replica_procs = make_replica_workers()

    def finish_replication():
        yield driver_proc
        for _ in replica_procs:
            repl_store.put(_SENTINEL)

    processes = [driver_proc]
    if variant == "rbv":
        processes.extend(replica_procs)
        env.process(finish_replication())

    def coordinator():
        yield env.all_of(processes)
        deadline[0] = env.now * (1 + config.drain_grace_fraction)
        if validators:
            yield from admission.shut(validators)

    env.run(until=env.process(coordinator()))
    if orthrus:
        metrics.detections = runtime.detections
        result.ledger = session.ledger.summary()
    result.rbv_detections = rbv_detections[0]
    result.responses = [job.result]
    result.digest = job.state_digest() if not result.crashed else None
    return result
