"""Table 1 — applications and datasets.

Characterizes each workload generator against its published traits:

| Application | Dataset    | Characteristics     |
|-------------|-----------|---------------------|
| Memcached   | CacheLib  | Skewed with churn   |
| Masstree    | ALEX      | Read-intensive      |
| LSMTree     | Synthetic | Write-intensive     |
| Phoenix     | WMT       | Word count          |

and benchmarks generator throughput (workload generation must never be
the harness bottleneck).
"""

from figures import bench_scale, print_table, table1_workloads


def test_table1_workload_characteristics(benchmark):
    fig = benchmark.pedantic(table1_workloads, args=(bench_scale(),), rounds=1, iterations=1)
    rows = [
        ["Memcached", "CacheLib-like",
         f"{fig['memcached.read_fraction']:.0%} reads, "
         f"top-20% keys carry {fig['memcached.head_mass']:.0%}"],
        ["Masstree", "ALEX-like",
         f"{fig['masstree.scan_fraction']:.0%} range scans / "
         f"{fig['masstree.update_fraction']:.0%} updates"],
        ["LSMTree", "YCSB-synthetic", f"{fig['lsmtree.write_fraction']:.0%} random writes"],
        ["Phoenix", "WMT-like corpus",
         f"word count; top-20% vocabulary carries {fig['phoenix.head_mass']:.0%} of tokens"],
    ]
    print_table(
        "Table 1: applications and datasets (workload generators)",
        ["Application", "Dataset", "Measured characteristics"],
        rows,
    )
    assert fig["mix.gets"] > fig["mix.sets"] > 0
