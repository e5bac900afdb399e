"""Figure 6 — application performance: vanilla vs Orthrus vs RBV.

Paper-expected shape:
* Orthrus time overhead ~2–6% on every app (Memcached 4.4%, Phoenix <2%,
  Masstree comparable to vanilla, LSMTree 5%);
* RBV roughly 2× slower than vanilla (Memcached-Orthrus 1.6× over RBV,
  Phoenix 1.5×, Masstree 2.9×, LSMTree RBV 54% behind Orthrus);
* memory overheads (§4.2): Orthrus ~25% average (Memcached 29%,
  Masstree 35%, LSMTree 34%, Phoenix 2.6%); RBV ~2.1×.
"""

import pytest
from figures import APPS, bench_scale, fig6_performance, pct, print_table


def test_fig6_application_performance(benchmark):
    fig = benchmark.pedantic(fig6_performance, args=(bench_scale(),), rounds=1, iterations=1)

    rows = []
    for name in APPS:
        if name == "phoenix":
            metric = f"{fig['phoenix.vanilla_duration'] * 1e3:.2f} ms job"
        else:
            metric = f"{fig[f'{name}.vanilla_throughput'] / 1e3:.0f} kop/s vanilla"
        rows.append(
            [
                name,
                metric,
                pct(fig[f"{name}.orthrus_overhead"]),
                pct(fig[f"{name}.rbv_overhead"]),
                pct(fig[f"{name}.memory_overhead"]),
            ]
        )
    print_table(
        "Figure 6: application performance (+ §4.2 memory overheads)",
        ["App", "Vanilla baseline", "Orthrus overhead", "RBV overhead", "Orthrus mem ovh"],
        rows,
    )

    for name in APPS:
        orthrus_over = fig[f"{name}.orthrus_overhead"]
        rbv_over = fig[f"{name}.rbv_overhead"]
        # Shape assertions: Orthrus in the paper's 2-6% band (we allow up
        # to 15% for the write-stress LSMTree), RBV far behind.
        assert orthrus_over == pytest.approx(0.04, abs=0.11), name
        assert rbv_over > 0.4, name
        assert rbv_over > orthrus_over * 4, name
