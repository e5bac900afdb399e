"""Table 2 — full SDC detection capability by injected error type.

Both Orthrus and RBV get as many validation cores as the application uses
(the paper's upper-bound configuration).  Paper-expected shape:

* RBV detects 98–100% of SDCs in every unit column;
* Orthrus is slightly behind (~97–99%) — its misses are control-path
  branch errors that checksums cannot see (and syscall-internal errors);
* unit columns with no instructions of that type show zero SDCs
  (Memcached/Masstree fp = 0, Phoenix cache = 0).
"""

from figures import APPS, TABLE2_UNITS, bench_scale, print_table, table2_coverage


def test_table2_sdc_coverage(benchmark):
    fig = benchmark.pedantic(table2_coverage, args=(bench_scale(),), rounds=1, iterations=1)

    rows = []
    for name in APPS:
        for unit in TABLE2_UNITS:
            key = f"{name}.{unit.value}"
            total, rbv_detected = fig[f"{key}.total_sdcs"], fig[f"{key}.rbv_detected"]
            rbv = "-" if rbv_detected is None else f"{rbv_detected} ({fig[f'{key}.rbv_rate']:.0%})"
            rows.append(
                [
                    name,
                    unit.value,
                    total,
                    rbv,
                    f"{fig[f'{key}.orthrus_detected']} ({fig[f'{key}.orthrus_rate']:.0%})"
                    if total else "-",
                ]
            )
    print_table(
        "Table 2: SDC coverage at full validation capacity",
        ["App", "Error type", "Total SDCs", "RBV detected", "Orthrus detected"],
        rows,
    )

    # Structural zeros (instruction mixes, §4.4 / Table 2).
    assert fig["memcached.fpu.total_sdcs"] == 0
    assert fig["masstree.fpu.total_sdcs"] == 0
    assert fig["phoenix.cache.total_sdcs"] == 0

    n_trials = fig["overall.sdc_trials"]
    assert n_trials >= 8, "campaign produced too few SDCs to compare"
    orthrus_rate = fig["overall.orthrus_rate"]
    rbv_rate = fig["overall.rbv_rate"]
    print(f"overall: Orthrus {orthrus_rate:.1%}, RBV {rbv_rate:.1%} "
          f"over {n_trials} SDC trials")
    # Paper shape: both high; RBV >= Orthrus (control-path blind spot).
    assert orthrus_rate > 0.85
    assert rbv_rate >= orthrus_rate - 0.05
