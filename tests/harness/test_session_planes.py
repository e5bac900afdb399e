"""One driver session, one validator loop: what the planes must agree on.

The plain plane is the fault-tolerant plane with null policies
(DESIGN §10.5).  Contracts of the shared stages and the one loop in
``harness/pipeline.py``: canaries dequeued past the drain deadline are not
organic coverage loss (the shared settlement step); the plain plane, the
fault-tolerant plane and library ``queued`` mode report a log's lifecycle
in one vocabulary (the shared decide step); dynamic scaling behaves the
same on every plane and a quarantined validator leaves the loop; plain
and idle fault-tolerant runs compute the same thing; and there is only
one loop to hold to it.
"""

import ast
import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

import repro.harness.pipeline as pipeline
from repro.cli import main
from repro.faultinject.validator_faults import ValidatorChaosConfig
from repro.harness.pipeline import PipelineConfig, run_orthrus_server
from repro.harness.scenarios import (
    lsmtree_scenario,
    masstree_scenario,
    memcached_scenario,
)
from repro.machine.cpu import Machine
from repro.obs import Observability
from repro.obs.audit import audit_pipeline
from repro.obs.canary import CANARY_CLOSURE, CanaryConfig
from repro.runtime.degradation import FaultToleranceConfig
from repro.runtime.orthrus import OrthrusRuntime
from repro.runtime.sampling import AlwaysSampler
from repro.validation.validator import Validator
from repro.validation.watchdog import WatchdogConfig

HARNESS = pathlib.Path(pipeline.__file__).parent

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


class TestDynamicScalingEverywhere:
    """§3.5 dynamic scaling is a policy of the one loop, so the overloaded
    4-app / 2-validation shape grows its pool on every plane."""

    @staticmethod
    def _run(monkeypatch, selector, dynamic_scaling):
        spawned = []
        loop = pipeline.validator_process

        def counting(session, core, *args):
            spawned.append(core.core_id)
            return loop(session, core, *args)

        monkeypatch.setattr(pipeline, "validator_process", counting)
        config = PipelineConfig(app_threads=4, validation_cores=2, seed=3,
                                dynamic_scaling=dynamic_scaling, **selector)
        result = run_orthrus_server(masstree_scenario(), 200, config)
        assert not result.crashed, result.crash_reason
        return result, spawned

    @pytest.mark.parametrize("selector", [
        {},
        dict(fault_tolerance=FaultToleranceConfig()),
        dict(validator_faults=ValidatorChaosConfig.parse(["hang=1"], seed=1)),
    ], ids=["plain", "fault_tolerance", "validator_faults"])
    def test_scales_like_static(self, monkeypatch, selector):
        dynamic, spawned = self._run(monkeypatch, selector, dynamic_scaling=True)
        static, _ = self._run(monkeypatch, selector, dynamic_scaling=False)
        assert len(spawned) > 1, spawned
        assert dynamic.digest == static.digest
        if dynamic.ft is None:
            assert dynamic.metrics.validated + dynamic.metrics.skipped == 200
        else:
            assert dynamic.ft.conserved, dynamic.ft.ledger
            assert dynamic.ft.ledger["enqueued"] == 200
        assert audit_pipeline(PipelineConfig(dynamic_scaling=True, **selector)).ok

    def test_crashing_pool_falls_back_like_static(self):
        """Every validator crashes: each death starts a reserve core until
        none is left, then the total-death sweep settles the stranded logs
        by the CRC fallback and sheds blocked producers, as the static run
        does — the run ends instead of polling forever."""

        def run(dynamic_scaling):
            config = PipelineConfig(
                app_threads=4, validation_cores=2, seed=3,
                dynamic_scaling=dynamic_scaling,
                fault_tolerance=FaultToleranceConfig(
                    queue_capacity=8, overflow_policy="block-producer"
                ),
                validator_faults=ValidatorChaosConfig.parse(["crash=0.99"], seed=1),
            )
            return run_orthrus_server(masstree_scenario(), 200, config)

        dynamic, static = run(True), run(False)
        assert dynamic.ft.faulted_cores == {"crash": [4, 5]}
        assert dynamic.ft.conserved, dynamic.ft.ledger
        assert dynamic.ft.ledger["fallback"] > 0
        assert "shutdown-drain" not in dynamic.ft.ledger["drop_reasons"]
        assert dynamic.ft.ledger == static.ft.ledger
        assert dynamic.digest == static.digest

    def test_doctor_accepts_the_combination(self, tmp_path, capsys):
        spec = tmp_path / "dynamic_scaling.json"
        spec.write_text(json.dumps({"pipeline": {
            "validation_cores": 4,
            "dynamic_scaling": True,
            "fault_tolerance": {"queue_capacity": 64},
        }}))
        assert main(["doctor", "--config", str(spec)]) == 0
        assert "no contradictions found" in capsys.readouterr().out


class TestQuarantinedValidator:
    """A validation core the fault-tolerant plane quarantines leaves the
    loop, handing back the log it had dequeued.  The slowed core misses
    two 20 µs deadlines and is reported an offender; under dynamic
    scaling it is the one started validator, so the reserve core 3 must
    take its place or the safe-mode holds never release.  (A hung core
    holds one dispatch forever, so it misses one deadline and is never
    quarantined.)"""

    @pytest.mark.parametrize("dynamic_scaling", [False, True],
                             ids=["fault-tolerant-static", "fault-tolerant-dynamic"])
    def test_never_validates_after_quarantine(self, monkeypatch, dynamic_scaling):
        calls = []
        validate = Validator.validate

        def recording(self, log, core, **kwargs):
            calls.append((core.core_id, self._clock.now()))
            return validate(self, log, core, **kwargs)

        monkeypatch.setattr(Validator, "validate", recording)
        obs = Observability()
        config = PipelineConfig(
            seed=7, obs=obs, dynamic_scaling=dynamic_scaling, safe_mode=True,
            fault_tolerance=FaultToleranceConfig(
                watchdog=WatchdogConfig(deadline=20e-6), check_interval=10e-6
            ),
            validator_faults=ValidatorChaosConfig.parse(
                ["slowdown=1"], seed=2, arm_at=50e-6, slowdown_factor=200
            ),
        )
        result = run_orthrus_server(memcached_scenario(), 400, config)
        assert result.ft.faulted_cores == {"slowdown": [2]}
        assert result.ft.quarantined_validators == [2]
        (quarantined_at,) = [
            event.ts for event in obs.tracer.of_kind("response.quarantine")
        ]
        assert any(core == 2 for core, _ in calls)
        assert [t for core, t in calls if core == 2 and t > quarantined_at] == []
        assert result.ft.conserved, result.ft.ledger
        assert result.detections == 0


@settings(max_examples=10, deadline=None)
@given(
    scenario=st.sampled_from([memcached_scenario, masstree_scenario, lsmtree_scenario]),
    shape=st.sampled_from([(1, 1), (2, 1), (2, 2), (4, 1), (2, 4)]),
    seed=st.integers(1, 3),
    n_ops=st.integers(20, 200),
)
def test_plain_and_idle_fault_tolerant_planes_agree(scenario, shape, seed, n_ops):
    """Same computation, same clock: digest, operations, duration and
    detections agree.  Validated, skipped and peak bytes are deliberately
    not compared: the plain plane replays at dispatch and the supervised
    one at completion, so the latter holds versions longer, and per-core
    queues give the sampler a different delay signal than the shared
    store."""
    app_threads, validation_cores = shape
    results = [
        run_orthrus_server(scenario(), n_ops, PipelineConfig(
            app_threads=app_threads, validation_cores=validation_cores, seed=seed,
            fault_tolerance=fault_tolerance,
        ))
        for fault_tolerance in (None, _FT_IDLE)
    ]
    plain, supervised = (
        (r.digest, r.metrics.operations, r.metrics.duration, r.detections)
        for r in results
    )
    assert plain == supervised


def _own_nodes(function):
    """The nodes of ``function``'s own body, not of functions nested in it."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _harness_functions():
    for path in sorted(HARNESS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{path.stem}.{node.name}", node


class TestOneLoop:
    """The plain plane is not a second driver: one validator generator, one
    ``run_orthrus_server`` body, and ``run_chaos_server`` is a default."""

    def test_exactly_one_generator_decides(self):
        deciders = []
        for name, function in _harness_functions():
            own = list(_own_nodes(function))
            generator = any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in own)
            if generator and any(
                isinstance(n, ast.Attribute) and n.attr == "decide" for n in own
            ):
                deciders.append(name)
        assert deciders == ["pipeline.validator_process"]

    def test_run_orthrus_server_calls_no_other_driver(self):
        (function,) = (f for name, f in _harness_functions()
                       if name == "pipeline.run_orthrus_server")
        called = {
            node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(function)
            if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))
        }
        assert not {c for c in called if c.startswith("run_") and c.endswith("_server")}

    def test_run_chaos_server_is_one_return(self):
        (function,) = (f for name, f in _harness_functions()
                       if name == "chaos.run_chaos_server")
        body = [
            node for node in function.body
            if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))
        ]
        assert len(body) == 1 and isinstance(body[0], ast.Return)
