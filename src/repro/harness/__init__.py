"""Benchmark harness: scenarios and virtual-time deployment drivers.

Importing the package fills the DES extension table
(:data:`repro.harness.pipeline.EXTENSIONS`, DESIGN §3) — Python runs this
file before any ``repro.harness.*`` module.  The order is the order in
which every hook runs: canaries settle, then the drift probe's terminal
sweep, then the last telemetry sample sees both, and the fault-tolerant
report comes last.
"""

from repro.harness import chaos, pipeline
from repro.harness.chaos import FaultToleranceReport, run_chaos_server
from repro.harness.phoenix import run_phoenix
from repro.harness.pipeline import (
    PipelineConfig,
    RunResult,
    run_orthrus_server,
    run_rbv_server,
    run_vanilla_server,
)
from repro.harness.scenarios import (
    BatchScenario,
    ServerScenario,
    all_server_scenarios,
    lsmtree_scenario,
    masstree_scenario,
    memcached_scenario,
    phoenix_scenario,
)
from repro.obs import audit, canary, timeseries

pipeline.EXTENSIONS[:] = (canary.attach, audit.attach, timeseries.attach, chaos.attach)

__all__ = [
    "BatchScenario",
    "FaultToleranceReport",
    "PipelineConfig",
    "run_chaos_server",
    "RunResult",
    "ServerScenario",
    "all_server_scenarios",
    "lsmtree_scenario",
    "masstree_scenario",
    "memcached_scenario",
    "phoenix_scenario",
    "run_orthrus_server",
    "run_phoenix",
    "run_rbv_server",
    "run_vanilla_server",
]
