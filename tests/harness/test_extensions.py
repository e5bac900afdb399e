"""The extension table (DESIGN §3): each stage runs the extensions in its
own fixed order, and a run that asks for none binds nothing.

The orders are behaviour: processes started at the same virtual instant
run in creation order, and the last telemetry sample must come after the
canaries settle and the drift probe's terminal sweep.  The stream golden
(``test_stream_golden.py``) sees an order change only where the golden
grid makes it visible (``ft/chaos-canary-audit-tie`` sees the canary and
audit start order), so the binding itself is pinned here.
"""

from repro.harness.pipeline import DriverSession, PipelineConfig
from repro.harness.scenarios import memcached_scenario
from repro.obs import Observability, TimeSeriesConfig
from repro.obs.canary import CanaryConfig
from repro.runtime.degradation import FaultToleranceConfig


def _owners(config: PipelineConfig) -> dict:
    """hook -> the module of each bound attachment, in binding order."""
    session = DriverSession.open(memcached_scenario(), 10, config)
    return {
        hook: [type(bound.__self__).__module__.rpartition(".")[2] for bound in hooks]
        for hook, hooks in session.hooks.items()
    }


def test_every_stage_keeps_its_order():
    assert _owners(PipelineConfig(
        obs=Observability(), canary=CanaryConfig(), audit=True,
        timeseries=TimeSeriesConfig(), fault_tolerance=FaultToleranceConfig(),
    )) == {
        "plane": ["chaos"],
        # audit's ledger and monitor exist before the recorder's probes
        "observe": ["audit", "timeseries"],
        # telemetry starts in ``observe``: it precedes the canary issuer,
        # the canary poller and the audit probe
        "start": ["canary", "audit"],
        "verdict": ["audit"],
        "exposed": ["audit"],
        # the last sample sees every canary miss and every violation
        "finish": ["canary", "audit", "timeseries", "chaos"],
    }


def test_a_run_without_extensions_binds_nothing():
    assert _owners(PipelineConfig(obs=Observability())) == dict.fromkeys(
        ("plane", "observe", "start", "verdict", "exposed", "finish"), []
    )
