"""Figure 9 — SDC detection rate vs validation cores (1/2/4).

Paper-expected shape:

* detection rises with validation cores (average ≈87% → 91% → 96%);
* Memcached stays ~flat — a fraction of a core already validates its
  (cheap) closures;
* Phoenix drops steepest at 1 core (many workers, expensive comparisons);
* adaptive sampling beats unguided random sampling (paper: 1.41× at one
  core), driven by the staleness guarantee and the fp/vector priority.

The injected mercurial defects use a sub-unity trigger rate (errors recur
"at a certain frequency" [44]), so each SDC trial manifests in a sparse
subset of executions — the regime where sampling choices matter.
"""

from figures import APPS, CORES, bench_scale, fig9_coverage_cores, print_table


def test_fig9_detection_vs_cores(benchmark):
    fig = benchmark.pedantic(fig9_coverage_cores, args=(bench_scale(),), rounds=1, iterations=1)

    def cell(name, cores, sampler):
        key = f"{name}.{cores}.{sampler}"
        return f"{fig[f'{key}.detection_rate']:.0%} ({fig[f'{key}.sdcs']} SDCs)"

    rows = []
    for name in APPS:
        for cores in CORES:
            rows.append(
                [
                    name,
                    cores,
                    cell(name, cores, "AdaptiveSampler"),
                    cell(name, cores, "RandomSampler"),
                ]
            )
    print_table(
        "Figure 9: SDC detection rate vs validation cores",
        ["App", "Cores", "Orthrus (adaptive)", "Random sampling"],
        rows,
    )

    averages = {c: fig[f"average.{c}.AdaptiveSampler"] for c in CORES}
    random_avg = fig["average.1.RandomSampler"]
    print(
        "average adaptive detection: "
        + ", ".join(f"{c} core(s) = {averages[c]:.1%}" for c in CORES)
        + f"; random @1 core = {random_avg:.1%}"
    )

    # Shape: detection grows with cores; adaptive >= random at 1 core;
    # memcached flat; values in the paper's neighbourhood.  Tolerances
    # reflect the per-cell SDC sample sizes (tens of trials).
    assert averages[1] <= averages[2] + 0.08
    assert averages[2] <= averages[4] + 0.08
    assert averages[4] > 0.80
    assert averages[1] >= random_avg - 0.02
    mc_1 = fig["memcached.1.AdaptiveSampler.detection_rate"]
    mc_4 = fig["memcached.4.AdaptiveSampler.detection_rate"]
    assert abs(mc_1 - mc_4) < 0.15  # memcached ~unchanged (paper §4.4)
