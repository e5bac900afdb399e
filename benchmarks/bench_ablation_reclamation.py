"""Ablation A3 — window-based memory reclamation (§3.6).

Paper-expected shape: reclamation keeps Orthrus's memory overhead bounded
(~20-35%) at negligible time cost; without it, stale versions accumulate
linearly on write-heavy workloads.
"""

import math

from figures import ablation_reclamation, bench_scale, pct, print_table

from repro.memory.heap import VersionedHeap
from repro.memory.reclaim import ReclamationManager


def test_ablation_reclamation(benchmark):
    """Write-stress LSMTree with prompt vs disabled reclamation."""
    fig = benchmark.pedantic(
        ablation_reclamation, args=(bench_scale(),), rounds=1, iterations=1
    )

    time_cost = fig["time_cost"]
    print_table(
        "Ablation A3: memory reclamation (LSMTree, 100% random writes)",
        ["Config", "Peak memory overhead", "Versions reclaimed", "GC time cost"],
        [
            [
                "window GC on",
                pct(fig["with_gc.memory_overhead"]),
                fig["with_gc.versions_reclaimed"],
                pct(max(0.0, time_cost)),
            ],
            [
                "GC off",
                pct(fig["no_gc.memory_overhead"]),
                fig["no_gc.versions_reclaimed"],
                "-",
            ],
        ],
    )

    assert fig["with_gc.versions_reclaimed"] > 0
    assert fig["no_gc.versions_reclaimed"] == 0
    # GC bounds the footprint; without it stale versions pile up.
    assert fig["with_gc.memory_overhead"] < fig["no_gc.memory_overhead"]
    # ...at negligible time cost (§3.6).
    assert abs(time_cost) < 0.02
    # Functional results are identical either way.
    assert fig["with_gc.responses"] == fig["no_gc.responses"]


def test_reclamation_is_watermark_safe():
    """Versions inside any open active window are never reclaimed."""
    heap = VersionedHeap()
    gc = ReclamationManager(heap, batch_size=1)
    obj = heap.allocate("v0")
    pinned = heap.latest(obj)
    gc.closure_started(1, pinned.created_at)  # closure may reference v0
    for value in range(20):
        heap.store(obj, f"v{value}")
        gc.closure_started(2 + value, heap.latest(obj).created_at)
        gc.closure_finished(2 + value)
    assert not pinned.reclaimed  # closure 1 still open
    gc.closure_finished(1)
    gc.reclaim_now()
    assert pinned.reclaimed
    assert heap.reclaim_before(math.inf) == 0  # nothing else is stale
