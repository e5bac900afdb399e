"""Figure 10 — SDC detection rate vs memory budget.

The sampling trigger switches from queueing delay to available memory
(§4.4): versions + pending logs beyond the budget push the sampling rate
down, trading coverage for reclamation throughput.  Budgets are expressed
as the vanilla footprint plus 5%–40% headroom, like the paper's x-axis.

Paper-expected shape: Phoenix is nearly flat (few versions, read-heavy);
the tree-based stores degrade as the budget shrinks (Masstree steepest —
small writes trigger bursts of versions whose reclamation is blocked by
unvalidated closures); Memcached degrades only mildly.
"""

from figures import APPS, HEADROOMS, bench_scale, fig10_coverage_memory, print_table


def test_fig10_detection_vs_memory(benchmark):
    fig = benchmark.pedantic(
        fig10_coverage_memory, args=(bench_scale(),), rounds=1, iterations=1
    )

    rows = []
    for name in APPS:
        rates = [fig[f"{name}.{h}.detection_rate"] for h in HEADROOMS]
        sdcs = [fig[f"{name}.{h}.sdcs"] for h in HEADROOMS]
        rows.append(
            [name]
            + [f"{rate:.0%} ({n})" for rate, n in zip(rates, sdcs)]
        )
    print_table(
        "Figure 10: detection rate vs memory budget (+5% .. +40% headroom)",
        ["App"] + [f"+{int(h * 100)}%" for h in HEADROOMS],
        rows,
    )

    # Shape: more memory never substantially hurts; generous budgets reach
    # high detection; Phoenix stays comparatively flat across budgets.
    for name in APPS:
        tight = fig[f"{name}.{HEADROOMS[0]}.detection_rate"]
        loose = fig[f"{name}.{HEADROOMS[-1]}.detection_rate"]
        assert loose >= tight - 0.1, name
    phoenix_spread = (
        fig[f"phoenix.{HEADROOMS[-1]}.detection_rate"]
        - fig[f"phoenix.{HEADROOMS[0]}.detection_rate"]
    )
    assert phoenix_spread <= 0.55
