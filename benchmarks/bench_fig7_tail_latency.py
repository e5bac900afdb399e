"""Figure 7 — 95th-percentile latency of the latency-critical apps.

Paper-expected shape: Orthrus p95 is close to vanilla, while RBV's tails
blow up by orders of magnitude (up to 1000× for Memcached) because of
replication queueing/backpressure stalls.
"""

from figures import SERVERS, bench_scale, fig7_tail_latency, print_table


def test_fig7_p95_latency(benchmark):
    fig = benchmark.pedantic(fig7_tail_latency, args=(bench_scale(),), rounds=1, iterations=1)

    rows = []
    for name in SERVERS:
        rows.append(
            [
                name,
                f"{fig[f'{name}.vanilla.p95'] * 1e6:.2f} us",
                f"{fig[f'{name}.orthrus.p95'] * 1e6:.2f} us",
                f"{fig[f'{name}.rbv.p95'] * 1e6:.2f} us",
                f"{fig[f'{name}.rbv.max'] * 1e6:.1f} us",
            ]
        )
    print_table(
        "Figure 7: p95 request latency",
        ["App", "Vanilla p95", "Orthrus p95", "RBV p95", "RBV max"],
        rows,
    )

    for name in SERVERS:
        v95 = fig[f"{name}.vanilla.p95"]
        o95 = fig[f"{name}.orthrus.p95"]
        r95 = fig[f"{name}.rbv.p95"]
        assert o95 < v95 * 2, name        # Orthrus stays near vanilla
        assert r95 > o95, name            # RBV tails are worse
        # RBV's worst-case stalls dwarf Orthrus's worst case.
        assert fig[f"{name}.rbv.max"] > 5 * fig[f"{name}.orthrus.max"], name
