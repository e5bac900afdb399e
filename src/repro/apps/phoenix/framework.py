"""Phoenix MapReduce framework: split/map/shuffle/reduce over closures.

The framework code (splitter, shuffler, scheduler) is the control path; the
map and reduce *tasks* are annotated closures, exactly how the paper ports
Phoenix (§4.1: "each map and reduce function is annotated as a closure").
User-defined map/reduce functions are plain callables executed inside the
task closures, so re-execution covers them.

Unlike the KV stores, each task manipulates a large batch of user data and
produces one big container version — few logs, big payloads.  That shape is
what drives Phoenix's behaviour in the paper: tiny runtime overhead (<2%),
huge RBV serialization costs, and the steepest coverage drop when validation
cores are scarce (each skipped log forfeits a lot of user data).

Instruction mix: ALU (hashing, counting), FPU (per-chunk statistics), SIMD
(vectorized count aggregation).  No cache-coherency instructions — Table
2's Phoenix cache column is zero because mappers share nothing.
"""

from __future__ import annotations

from typing import Callable

from repro.apps.common import deliver
from repro.closures.annotation import closure
from repro.closures.context import ops
from repro.memory.pointer import OrthrusPtr, orthrus_new

#: user map: (ops, text) -> iterable of (key, value)
MapFn = Callable[[object, str], list[tuple[str, int]]]
#: user reduce: (ops, key, values) -> value
ReduceFn = Callable[[object, str, list[int]], int]


@closure(name="phx.map_task")
def map_task(map_fn: MapFn, chunk_ptr: OrthrusPtr, n_partitions: int) -> OrthrusPtr:
    """Run one user map over a chunk and partition its emissions.

    Output: one container version holding ``n_partitions`` dicts plus
    per-chunk statistics (pair count, mean value — floating point).
    """
    o = ops()
    text = chunk_ptr.load()  # CRC probe: the chunk crossed the control path
    partitions: tuple[dict, ...] = tuple({} for _ in range(n_partitions))
    pair_count = 0
    value_total = 0.0
    for key, value in map_fn(o, text):
        index = o.alu.mod(o.alu.hash64(key), n_partitions)
        bucket = partitions[index]
        if key in bucket:
            bucket[key] = o.alu.add(bucket[key], value)
        else:
            bucket[key] = value
        pair_count = o.alu.add(pair_count, 1)
        value_total = o.fpu.fadd(value_total, float(value))
    mean_value = o.fpu.fdiv(value_total, float(pair_count)) if pair_count else 0.0
    lane_counts = tuple(len(bucket) for bucket in partitions)
    distinct = o.simd.vsum(lane_counts)
    container = orthrus_new(
        {
            "partitions": partitions,
            "pairs": pair_count,
            "mean": mean_value,
            "distinct": distinct,
        }
    )
    return container


@closure(name="phx.reduce_task")
def reduce_task(
    reduce_fn: ReduceFn,
    containers: tuple[OrthrusPtr, ...],
    partition: int,
) -> OrthrusPtr:
    """Merge one partition across all map outputs with the user reduce."""
    o = ops()
    grouped: dict[str, list[int]] = {}
    mean_total = 0.0
    distinct_lanes = []
    for container in containers:
        payload = container.load()
        for key, value in payload["partitions"][partition].items():
            grouped.setdefault(key, []).append(value)
        # Fold the mappers' floating-point and vector statistics into this
        # partition's summary, so fp/vector corruption in any map stage
        # propagates to user data the job externalizes.
        mean_total = o.fpu.fadd(mean_total, payload["mean"])
        distinct_lanes.append(payload["distinct"])
    mean_stat = o.fpu.fdiv(mean_total, float(len(containers))) if containers else 0.0
    spread = o.simd.vsum(tuple(distinct_lanes) or (0.0,))
    reduced = {
        key: reduce_fn(o, key, values) for key, values in sorted(grouped.items())
    }
    lanes = tuple(v & 0xFFFF for v in list(reduced.values())[:8]) or (0,)
    digest = o.simd.vsum(lanes)
    result = orthrus_new(
        {
            "partition": partition,
            "counts": reduced,
            "digest": digest,
            "mean_stat": mean_stat,
            "spread": spread,
        }
    )
    return result


class PhoenixJob:
    """One MapReduce job: owns the control path (split/schedule/merge)."""

    def __init__(
        self,
        runtime,
        map_fn: MapFn,
        reduce_fn: ReduceFn,
        n_partitions: int = 8,
    ):
        from repro.runtime.orthrus import OrthrusRuntime

        assert isinstance(runtime, OrthrusRuntime)
        self.runtime = runtime
        self.map_fn = map_fn
        self.reduce_fn = reduce_fn
        self.n_partitions = n_partitions
        self.map_outputs: list[OrthrusPtr] = []
        self.reduce_outputs: list[OrthrusPtr] = []

    def split(self, chunks: list[str]) -> list[OrthrusPtr]:
        """Splitter (control path): each chunk travels as a checksummed
        packet through a control-path hop into versioned memory."""
        core = self.runtime.current_core()
        return [deliver(self.runtime, core, chunk, "phx.control.split") for chunk in chunks]

    def run(self, chunks: list[str]) -> dict[str, int]:
        """Execute the full job; returns the merged result."""
        with self.runtime:
            return self._run(chunks)

    def _run(self, chunks: list[str]) -> dict[str, int]:
        chunk_ptrs = self.split(chunks)
        self.map_outputs = [
            map_task(self.map_fn, chunk_ptr, self.n_partitions)
            for chunk_ptr in chunk_ptrs
        ]
        containers = tuple(self.map_outputs)
        self.reduce_outputs = [
            reduce_task(self.reduce_fn, containers, partition)
            for partition in range(self.n_partitions)
        ]
        return self.merge()

    def merge(self) -> dict[str, int]:
        """Final merge (control path): results are only revealed here, at
        the end of execution — Phoenix's natural safe-mode point (§3.5)."""
        heap = self.runtime.heap
        merged: dict[str, int] = {}
        self.stats = []
        for result in self.reduce_outputs:
            payload = heap.latest(result.obj_id).value
            merged.update(payload["counts"])
            self.stats.append(
                (
                    payload["partition"],
                    payload["digest"],
                    payload["mean_stat"],
                    payload["spread"],
                )
            )
        return merged
