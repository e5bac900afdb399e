"""Ablation A5 — NUMA-aware validator placement (§3.5 "Scheduling Policy").

Orthrus co-locates validation with the application on the same socket so
closure logs are consumed out of the shared L3 within microseconds.  This
ablation runs the same Memcached workload twice with identical core counts
but different topology: validators on the application's socket vs across
the interconnect.

Paper-expected shape: same-node placement yields lower validation latency;
functional results are placement-independent.
"""

from figures import ablation_numa, bench_scale, print_table


def test_ablation_numa_placement(benchmark):
    fig = benchmark.pedantic(ablation_numa, args=(bench_scale(),), rounds=1, iterations=1)

    print_table(
        "Ablation A5: NUMA placement of validation cores",
        ["Placement", "Validation latency mean", "p95"],
        [
            [
                "same socket",
                f"{fig['same.val_mean'] * 1e6:.2f} us",
                f"{fig['same.val_p95'] * 1e6:.2f} us",
            ],
            [
                "cross socket",
                f"{fig['cross.val_mean'] * 1e6:.2f} us",
                f"{fig['cross.val_p95'] * 1e6:.2f} us",
            ],
        ],
    )
    assert fig["cross.val_mean"] > fig["same.val_mean"]
    # Functional results are placement-independent.
    assert fig["same.responses"] == fig["cross.responses"]
    assert fig["same.detections"] == fig["cross.detections"] == 0
