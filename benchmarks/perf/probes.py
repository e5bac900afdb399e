"""Layer probes: fixed-count loops over one public function per layer.

Each probe builds its own state untimed, times only the loop, and returns
``(elapsed_ns, calls, check)`` where ``check`` is a deterministic value of
the work done (pinned in ``expected.json``), so a probe that stops doing
its work cannot read as a speed-up.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Callable, NamedTuple

from repro.closures.log import ClosureLog
from repro.fleet import (
    ConsistentHashRing,
    FleetConfig,
    FleetTopology,
    fleet_digest,
    merge_events,
    plan_fleet,
    simulate_shard,
)
from repro.harness.scenarios import memcached_scenario
from repro.machine.core import Core
from repro.machine.faults import Fault, FaultKind
from repro.machine.instruction import Site
from repro.machine.units import Unit
from repro.memory.checksum import checksum_of
from repro.memory.heap import VersionedHeap
from repro.memory.reclaim import ReclamationManager
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanTracer
from repro.obs.trace import Tracer as ObsTracer
from repro.runtime.orthrus import OrthrusRuntime
from repro.runtime.sampling import AdaptiveSampler, SamplerConfig
from repro.sim.events import Environment, Store
from repro.validation.queues import QueueSet

Result = tuple[int, int, object]


def _logs(n: int) -> list[ClosureLog]:
    return [
        ClosureLog(seq=i, closure_name=f"c{i % 8}", caller=f"caller{i % 4}")
        for i in range(n)
    ]


def sim_event(n: int, seed: int) -> Result:
    env = Environment()

    def ticker(delay: float):
        for _ in range(n // 8):
            yield env.timeout(delay)

    for i in range(8):
        env.process(ticker(1.0 + i / 8))
    start = perf_counter_ns()
    env.run()
    return perf_counter_ns() - start, env.events_processed, env.events_processed


def sim_store(n: int, seed: int) -> Result:
    store = Store(Environment())
    for i in range(10_000):
        store.put(i)
    total = 0
    start = perf_counter_ns()
    for i in range(n):
        store.put(i)
        total += store.get().value
    return perf_counter_ns() - start, 2 * n, total


def _issue(core: Core, n: int) -> Result:
    core.begin("probe")
    add = core.alu.add
    acc = 0
    start = perf_counter_ns()
    for i in range(n):
        acc = add(acc, i)
    elapsed = perf_counter_ns() - start
    core.end()
    return elapsed, n, acc


def machine_issue(n: int, seed: int) -> Result:
    return _issue(Core(0, seed=seed), n)


def machine_issue_armed(n: int, seed: int) -> Result:
    core = Core(0, seed=seed)
    core.arm(Fault(Unit.ALU, FaultKind.BITFLIP, Site("elsewhere", "add", 0), bit=3))
    return _issue(core, n)


def memory_store(n: int, seed: int) -> Result:
    heap = VersionedHeap()
    ids = [heap.allocate(i) for i in range(256)]
    start = perf_counter_ns()
    for i in range(n):
        heap.store(ids[i & 255], i)
    return perf_counter_ns() - start, n, heap.versions_created


def memory_latest(n: int, seed: int) -> Result:
    heap = VersionedHeap()
    ids = [heap.allocate(i) for i in range(256)]
    total = 0
    start = perf_counter_ns()
    for i in range(n):
        total += heap.latest(ids[i & 255]).value
    return perf_counter_ns() - start, n, total


def memory_reclaim(n: int, seed: int) -> Result:
    """``n`` closure windows opened and closed at reclaim batch 16, over a
    heap with one superseded version per window to free."""
    heap = VersionedHeap()
    ids = [heap.allocate(i) for i in range(256)]
    manager = ReclamationManager(heap, batch_size=16)
    start_times = []
    for i in range(n):
        start_times.append(heap.now())
        heap.store(ids[i & 255], i)
    start = perf_counter_ns()
    for seq, opened in enumerate(start_times):
        manager.closure_started(seq, opened)
        manager.closure_finished(seq)
    return perf_counter_ns() - start, n, heap.versions_reclaimed


def memory_crc(n: int, seed: int) -> Result:
    value = ("key-00000042", "v" * 52)
    total = 0
    start = perf_counter_ns()
    for _ in range(n):
        total += checksum_of(value)
    return perf_counter_ns() - start, n, total


def _library_server(n: int, seed: int):
    """Memcached on the library runtime in ``queued`` mode: no DES."""
    runtime = OrthrusRuntime(mode="queued")
    scenario = memcached_scenario()
    return runtime, scenario.build(runtime), scenario.make_ops(n, seed)


def runtime_closure(n: int, seed: int) -> Result:
    runtime, server, ops = _library_server(n, seed)
    start = perf_counter_ns()
    for op in ops:
        server.handle(op)
    elapsed = perf_counter_ns() - start
    runtime.drain()
    return elapsed, n, server.state_digest()


def validation_pump(n: int, seed: int) -> Result:
    runtime, server, ops = _library_server(n, seed)
    for op in ops:
        server.handle(op)
    start = perf_counter_ns()
    pumped = runtime.pump()
    return perf_counter_ns() - start, pumped, (pumped, runtime.detections)


def validation_queue(n: int, seed: int) -> Result:
    queues = QueueSet(4)
    logs = _logs(n)
    popped = 0
    start = perf_counter_ns()
    for i, log in enumerate(logs):
        queues.push(log, float(i))
    for i in range(n):
        popped += queues.pop(i & 3) is not None
    return perf_counter_ns() - start, 2 * n, popped


def runtime_sampler(n: int, seed: int) -> Result:
    sampler = AdaptiveSampler(SamplerConfig(), seed=seed)
    logs = _logs(n)
    start = perf_counter_ns()
    for i, log in enumerate(logs):
        now = i * 1e-6
        sampler.observe_delay(50e-6 if i & 64 else 0.0)
        if sampler.decide(log, now).validate:
            sampler.on_validated(log, now)
    return perf_counter_ns() - start, n, (sampler.chosen, sampler.skipped)


def obs_counter(n: int, seed: int) -> Result:
    registry = MetricsRegistry()
    start = perf_counter_ns()
    for i in range(n):
        registry.counter(
            "probe_total", {"queue": str(i & 3)}, help="get-or-create + inc"
        ).inc()
    return perf_counter_ns() - start, n, registry.get("probe_total").total()


def obs_span(n: int, seed: int) -> Result:
    spans = SpanTracer(registry=MetricsRegistry())
    start = perf_counter_ns()
    for i in range(n):
        spans.record("validate", i >> 2, i * 1e-6, i * 1e-6 + 2e-6, closure="c")
    return perf_counter_ns() - start, n, len(spans)


def obs_emit(n: int, seed: int) -> Result:
    tracer = ObsTracer()
    start = perf_counter_ns()
    for i in range(n):
        tracer.emit("queue.push", ts=i * 1e-6, queue=0, seq=i, closure="c", depth=3)
    return perf_counter_ns() - start, n, len(tracer)


def fleet_ring_build(n: int, seed: int) -> Result:
    names = [f"s{i:04d}" for i in range(64)]
    owners = 0
    start = perf_counter_ns()
    for i in range(n):
        ring = ConsistentHashRing(names, salt=seed + i)
        owners += int(ring.owner_of_partition.sum())
    return perf_counter_ns() - start, n, owners


def fleet_merge(n: int, seed: int) -> Result:
    """``n`` merges of an 8-host / 16-shard model fleet's shard results;
    reported per merged event."""
    config = FleetConfig(
        hosts=8, shards=16, scale=0.02, epochs=32, ground_shards=0,
        load_factor=4.0, min_coverage=0.5, seed=seed,
    )
    results = [simulate_shard(p, config) for p in plan_fleet(FleetTopology(config))]
    merged = 0
    start = perf_counter_ns()
    for _ in range(n):
        events = merge_events(results)
        digest = fleet_digest(config, events)
        merged += len(events)
    return perf_counter_ns() - start, merged, digest


class Probe(NamedTuple):
    metric: str
    fn: Callable[[int, int], Result]
    #: loop count per batch, sized so the timed loop takes roughly 15-50 ms
    n: int
    #: reported value = elapsed_ns / calls / scale  (1e6 turns ns into ms)
    scale: float = 1.0


PROBES: list[Probe] = [
    Probe("sim.event_ns", sim_event, 16000),
    Probe("sim.store_ns", sim_store, 12000),
    Probe("machine.issue_ns", machine_issue, 20000),
    Probe("machine.issue_armed_ns", machine_issue_armed, 16000),
    Probe("memory.store_ns", memory_store, 8000),
    Probe("memory.latest_ns", memory_latest, 100000),
    Probe("memory.reclaim_ns", memory_reclaim, 12000),
    Probe("memory.crc_ns", memory_crc, 3000),
    Probe("runtime.closure_ns", runtime_closure, 400),
    Probe("validation.pump_ns", validation_pump, 600),
    Probe("validation.queue_ns", validation_queue, 20000),
    Probe("runtime.sampler_ns", runtime_sampler, 20000),
    Probe("obs.counter_ns", obs_counter, 30000),
    Probe("obs.span_ns", obs_span, 10000),
    Probe("obs.emit_ns", obs_emit, 20000),
    Probe("fleet.ring_build_ms", fleet_ring_build, 1, scale=1e6),
    Probe("fleet.merge_ns", fleet_merge, 60),
]
