"""One driver session, two planes: what the planes must agree on.

Three contracts of the shared stages in ``harness/pipeline.py``:
canaries dequeued past the drain deadline are not organic coverage loss
(the shared settlement step); the plain plane, the fault-tolerant plane
and library ``queued`` mode report a log's lifecycle in one vocabulary
(the shared decide step); and a request the selected plane cannot honour
(``dynamic_scaling`` on the fault-tolerant plane) fails closed.
"""

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.faultinject.validator_faults import ValidatorChaosConfig
from repro.harness.chaos import run_chaos_server
from repro.harness.pipeline import PipelineConfig, run_orthrus_server
from repro.harness.scenarios import masstree_scenario, memcached_scenario
from repro.machine.cpu import Machine
from repro.obs import Observability
from repro.obs.audit import audit_pipeline
from repro.obs.canary import CANARY_CLOSURE, CanaryConfig
from repro.runtime.degradation import FaultToleranceConfig
from repro.runtime.orthrus import OrthrusRuntime
from repro.runtime.sampling import AlwaysSampler

#: unbounded, ladder off: the fault-tolerant loop with nothing to tolerate
_FT_IDLE = FaultToleranceConfig(queue_capacity=None, degradation=None)
_PLANES = pytest.mark.parametrize(
    "fault_tolerance", [None, _FT_IDLE], ids=["plain", "fault-tolerant"]
)


def _overloaded(n_ops, obs=None, **overrides):
    """4 app threads on 1 validation core: the backlog outlives the apps."""
    config = PipelineConfig(
        app_threads=4, validation_cores=1, seed=3, obs=obs, **overrides
    )
    result = run_orthrus_server(masstree_scenario(), n_ops, config)
    assert not result.crashed, result.crash_reason
    return result


class TestCanaryPastDeadline:
    """With no drain grace the backlog — canaries included — is dropped at
    the deadline; only the 600 organic logs may show up as coverage."""

    @_PLANES
    def test_canaries_are_not_organic_skips(self, fault_tolerance):
        obs = Observability()
        result = _overloaded(
            600, obs, sampler=AlwaysSampler(), drain_grace_fraction=0.0,
            canary=CanaryConfig(period=20e-6), fault_tolerance=fault_tolerance,
        )
        metrics = result.metrics
        assert result.canary["issued"] > result.canary["detected"] > 0
        assert metrics.skipped > 0
        assert metrics.validated + metrics.skipped == 600
        for family in ("orthrus_validation_skips_total",
                       "orthrus_validation_drops_total"):
            closures = {labels["closure"] for labels, _ in obs.registry.series(family)}
            assert CANARY_CLOSURE not in closures, family
        # every waiter was released and, on the fault-tolerant plane, every
        # log — canaries too — still reached a terminal ledger state
        if result.ft is not None:
            assert result.ft.conserved
            assert result.ft.ledger["enqueued"] == 600 + result.canary["issued"]


class TestTelemetryVocabulary:
    """One validated and one sampled-out log read the same everywhere."""

    #: the library runtime pops per-core queues itself and says so; the DES
    #: planes dequeue from a Store / QueueSet.pop, which emit nothing
    LIBRARY_ONLY_EVENTS = {"queue.pop"}
    #: the fixed dispatch cost exists only in virtual time
    DES_ONLY_SPANS = {"dispatch"}

    @staticmethod
    def _vocabulary(obs):
        """{outcome: (trace-event kinds, span stages)} of one log each."""
        decisions = obs.tracer.of_kind("sampler.decision")
        vocabulary = {}
        for outcome, wanted in (("validated", True), ("sampled-out", False)):
            seq = next(e.fields["seq"] for e in decisions
                       if e.fields["validate"] is wanted)
            vocabulary[outcome] = (
                {event.kind for event in obs.tracer.for_seq(seq)},
                {span.stage for span in obs.spans.for_seq(seq)},
            )
        return vocabulary

    def _des(self, fault_tolerance):
        obs = Observability()
        _overloaded(300, obs, fault_tolerance=fault_tolerance)
        return self._vocabulary(obs)

    def _library_queued(self):
        class EveryOther:
            """A third-party sampler: validates every other log."""

            def __init__(self):
                self.seen = 0

            def observe_delay(self, delay):
                pass

            def should_validate(self, log, now):
                self.seen += 1
                return self.seen % 2 == 1

            def on_validated(self, log, now):
                pass

        obs = Observability()
        runtime = OrthrusRuntime(
            machine=Machine(cores_per_node=4, numa_nodes=1),
            mode="queued", sampler=EveryOther(), obs=obs,
        )
        scenario = memcached_scenario()
        server = scenario.build(runtime)
        with runtime:
            for op in scenario.make_ops(20, 1):
                server.handle(op)
            runtime.drain()
        return self._vocabulary(obs)

    def test_three_planes_one_vocabulary(self):
        plain = self._des(None)
        assert "sampler.decision" in plain["validated"][0]
        assert {"queue.wait", "validate", "verdict"} <= plain["validated"][1]
        assert {"queue.wait", "skip"} <= plain["sampled-out"][1]
        assert self._des(_FT_IDLE) == plain
        queued = self._library_queued()
        for outcome, (events, spans) in plain.items():
            queued_events, queued_spans = queued[outcome]
            assert queued_events - self.LIBRARY_ONLY_EVENTS == events, outcome
            assert queued_spans == spans - self.DES_ONLY_SPANS, outcome


class TestDynamicScalingFailsClosed:
    """The fault-tolerant plane starts every validator up front, so it must
    refuse ``dynamic_scaling`` instead of silently ignoring it."""

    def test_doctor_names_the_rule(self, capsys):
        rc = main(["doctor", "--config",
                   "tests/fixtures/doctor_bad_dynamic_scaling.json"])
        assert rc == 1
        assert "dynamic-scaling-ignored" in capsys.readouterr().out

    @pytest.mark.parametrize("selector", [
        dict(fault_tolerance=FaultToleranceConfig()),
        dict(validator_faults=ValidatorChaosConfig.parse(["hang=1"], seed=1)),
    ], ids=["fault_tolerance", "validator_faults"])
    def test_rule_and_driver_entry_agree(self, selector):
        config = PipelineConfig(dynamic_scaling=True, **selector)
        errors = audit_pipeline(config).errors
        assert [f.rule for f in errors] == ["dynamic-scaling-ignored"]
        for runner in (run_orthrus_server, run_chaos_server):
            with pytest.raises(ConfigurationError, match="dynamic_scaling"):
                runner(memcached_scenario(), 10, config)

    def test_plain_plane_still_scales(self):
        config = PipelineConfig(dynamic_scaling=True)
        assert audit_pipeline(config).ok
        result = run_orthrus_server(memcached_scenario(), 50, config)
        assert result.metrics.validated + result.metrics.skipped == 50
