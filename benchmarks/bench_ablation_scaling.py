"""Ablation A4 — dynamic validator scaling (§3.5 "Dynamic Scaling").

Orthrus starts with a single validation thread and launches more (within
the idle-core budget) when a closure's recent validation latency runs 50%
above the global average.  Paper-expected shape: dynamic scaling tracks the
statically-provisioned configuration's coverage and keeps detection latency
bounded, while holding cores back when load is light.
"""

from figures import ablation_scaling, bench_scale, print_table


def test_ablation_dynamic_scaling(benchmark):
    fig = benchmark.pedantic(ablation_scaling, args=(bench_scale(),), rounds=1, iterations=1)

    def row(name, arm):
        return [
            name,
            fig[f"{arm}.validated"],
            fig[f"{arm}.skipped"],
            f"{fig[f'{arm}.val_mean'] * 1e6:.2f} us",
            f"{fig[f'{arm}.val_p95'] * 1e6:.2f} us",
        ]

    print_table(
        "Ablation A4: dynamic validator scaling (Masstree, 4 app threads)",
        ["Config", "Validated", "Skipped", "Val latency mean", "p95"],
        [
            row("4 cores static", "static_full"),
            row("1→4 cores dynamic", "dynamic"),
            row("1 core static", "static_one"),
        ],
    )

    # Dynamic scaling validates (nearly) as much as the full static
    # provision and clearly more than a single frozen core.
    assert fig["dynamic.validated"] >= fig["static_full.validated"] * 0.85
    assert fig["dynamic.validated"] >= fig["static_one.validated"]
    # And its latency stays within a small factor of the static optimum.
    assert fig["dynamic.val_mean"] < fig["static_full.val_mean"] * 10
