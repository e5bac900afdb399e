"""Ablation A1 — checksum cost (§4.2 "Impact of Checksum").

Paper-expected shape: control-path CRC generation + verification costs
under 1% of execution time (a few dozen cycles per object on SSE4.2-class
hardware) while being the only mechanism that catches control-path payload
corruption.
"""

from figures import ablation_checksum, bench_scale, pct, print_table, scaled

from repro.harness.pipeline import PipelineConfig, run_orthrus_server
from repro.harness.scenarios import memcached_scenario
from repro.machine.faults import Fault, FaultKind
from repro.machine.instruction import Site
from repro.machine.units import Unit


def test_ablation_checksum_cost(benchmark):
    fig = benchmark.pedantic(ablation_checksum, args=(bench_scale(),), rounds=1, iterations=1)
    cost = fig["cost"]
    print_table(
        "Ablation A1: checksum cost",
        ["Config", "Throughput (kop/s)"],
        [
            ["with CRC-16", f"{fig['with_crc.throughput'] / 1e3:.0f}"],
            ["without", f"{fig['without_crc.throughput'] / 1e3:.0f}"],
            ["overhead", pct(cost)],
        ],
    )
    assert cost < 0.02  # paper: <1%


def test_ablation_checksum_is_load_bearing():
    """Without the CRC probe, control-path payload corruption is silent."""
    scenario = memcached_scenario(n_keys=60)
    fault = Fault(
        unit=Unit.ALU, kind=FaultKind.BITFLIP, bit=120,
        site=Site("mc.control.rx", "copy", 0),
    )
    config = PipelineConfig(seed=2)
    config.deferred_faults = ((0, fault),)
    protected = run_orthrus_server(scenario, scaled(600, bench_scale()), config)
    assert protected.runtime.report.count("checksum") > 0
