"""One door out of the validation plane (DESIGN §10.2).

Every log that enters the plane leaves it exactly once, through
``DriverSession.settle``, on either plane.  So the four views of that
exit cannot disagree: the conservation ledger (``RunResult.ledger``), the
span chains (each ends in exactly one terminal marker), the coverage
counters (``RunMetrics.validated`` / ``.skipped``) and the exposure
ledger.  The AST guard keeps the door the only one in ``repro.harness``.
"""

import ast
import json
import pathlib
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.harness.pipeline as pipeline
from repro.cli import main
from repro.faultinject.validator_faults import ValidatorChaosConfig
from repro.harness.phoenix import run_phoenix
from repro.harness.pipeline import PipelineConfig, run_orthrus_server
from repro.harness.scenarios import (
    lsmtree_scenario,
    masstree_scenario,
    memcached_scenario,
    phoenix_scenario,
)
from repro.obs import Observability
from repro.obs.canary import CANARY_CLOSURE, CanaryConfig
from repro.obs.spans import load_spans_chrome
from repro.runtime.degradation import DegradationConfig, FaultToleranceConfig
from repro.validation.watchdog import WatchdogConfig

HARNESS = pathlib.Path(pipeline.__file__).parent

#: terminal span marker -> the ledger state it records
MARKERS = {"verdict": "validated", "skip": "skipped", "drop": "dropped",
           "fallback": "fallback"}


def _chains(spans) -> dict:
    chains: dict[int, list] = {}
    for span in spans:
        chains.setdefault(span.seq, []).append(span)
    return chains


def _chain_end(chain):
    """The span a chain ends in: the latest end, a marker winning a tie
    (a skip ends where its ``queue.wait`` does, a rejected log's drop where
    its ``closure.run`` does).  Rounded so a Chrome round trip ties too."""
    return max(chain, key=lambda span: (round(span.end, 12), span.stage in MARKERS))


def _terminal_markers(spans) -> dict:
    """seq -> the one terminal marker its chain ends in."""
    ends = {}
    for seq, chain in _chains(spans).items():
        markers = [span for span in chain if span.stage in MARKERS]
        assert len(markers) == 1, (seq, [span.stage for span in chain])
        assert _chain_end(chain) is markers[0], (seq, [span.stage for span in chain])
        ends[seq] = markers[0]
    return ends


def _assert_views_agree(result, obs) -> None:
    """Ledger, span chains, coverage counters and exposure windows tell
    the same story about every log that entered the plane."""
    ledger, spans = result.ledger, list(obs.spans)
    canary = {span.seq for span in spans if span.closure == CANARY_CLOSURE}
    ran = Counter(span.seq in canary for span in spans if span.stage == "closure.run")
    assert ran[True] == (result.canary["issued"] if result.canary else 0)
    assert ledger["outstanding"] == 0, ledger
    assert ledger["enqueued"] == ran[False] + ran[True], ledger

    ends = _terminal_markers(spans)
    assert set(ends) == set(_chains(spans))
    states = Counter(MARKERS[marker.stage] for marker in ends.values())
    assert {state: states[state] for state in MARKERS.values()} == {
        state: ledger[state] for state in MARKERS.values()
    }
    drops = Counter(m.args["reason"] for m in ends.values() if m.stage == "drop")
    assert drops == Counter(ledger["drop_reasons"])

    user = [marker for seq, marker in ends.items() if seq not in canary]
    stages = Counter(marker.stage for marker in user)
    assert result.metrics.validated == stages["verdict"]
    deadline = sum(1 for m in user if m.stage == "drop" and m.args["reason"] == "deadline")
    assert result.metrics.skipped == stages["skip"] + deadline

    exposed = Counter()
    for entry in result.audit["exposure"]["entries"]:
        exposed[entry["reason"]] += entry["logs"]
    expected = Counter(
        "checksum-only" if marker.stage == "fallback"
        else marker.args["reason"] if marker.stage == "drop"
        else "coverage-shed" if marker.args["reason"] == "coverage-shed"
        else "sampled-out"
        for marker in user if marker.stage != "verdict"
    )
    expected["redispatch"] = sum(
        1 for span in spans if span.stage == "redispatch" and span.seq not in canary
    )
    assert exposed == expected


_APPS = {"memcached": memcached_scenario, "masstree": masstree_scenario,
         "lsmtree": lsmtree_scenario}
_FAULTS = (None, "crash", "hang", "verdict-loss", "slowdown")


def _ft(**overrides):
    return FaultToleranceConfig(
        watchdog=WatchdogConfig(deadline=80e-6), check_interval=10e-6, **overrides
    )


@st.composite
def _runs(draw, max_ops):
    """(scenario name, ops, PipelineConfig) over both planes."""
    faults = None
    fault_tolerance = None
    if draw(st.booleans()):
        fault_tolerance = _ft(
            queue_capacity=draw(st.sampled_from([None, 4, 16])),
            overflow_policy=draw(st.sampled_from(["reject", "drop-oldest",
                                                  "block-producer"])),
            degradation=draw(st.sampled_from([None, DegradationConfig()])),
        )
        kind = draw(st.sampled_from(_FAULTS))
        if kind is not None:
            faults = ValidatorChaosConfig.parse([f"{kind}=1"], seed=draw(st.integers(1, 3)))
    config = PipelineConfig(
        app_threads=draw(st.sampled_from([1, 2, 4])),
        validation_cores=draw(st.sampled_from([1, 2, 4])),
        dynamic_scaling=draw(st.booleans()),
        seed=draw(st.integers(1, 3)),
        canary=CanaryConfig(period=20e-6) if draw(st.booleans()) else None,
        drain_grace_fraction=draw(st.sampled_from([0.02, 0.25])),
        fault_tolerance=fault_tolerance,
        validator_faults=faults,
        audit=True,
    )
    return draw(st.sampled_from(sorted(_APPS))), draw(st.integers(20, max_ops)), config


def _run(app, n_ops, config):
    obs = Observability()
    config.obs = obs
    result = run_orthrus_server(_APPS[app](), n_ops, config)
    assert not result.crashed, result.crash_reason
    return result, obs


@settings(max_examples=20, deadline=None)
@given(run=_runs(max_ops=80))
# A reserve core the §3.5 scaler started after the apps finished got no
# sentinel from the plain plane's drain: the run deadlocked.
@example(run=("masstree", 49, PipelineConfig(
    app_threads=4, validation_cores=2, seed=2, dynamic_scaling=True, audit=True,
)))
# The scaler popped a reserve a crashed validator's replacement had spent.
@example(run=("memcached", 100, PipelineConfig(
    app_threads=4, validation_cores=4, seed=1, dynamic_scaling=True, audit=True,
    fault_tolerance=_ft(),
    validator_faults=ValidatorChaosConfig.parse(["crash=1"], seed=1),
)))
# A re-dispatch that found the block-producer queues full was lost; one
# still waiting for room when the drain stopped the plane, too.
@example(run=("masstree", 125, PipelineConfig(
    app_threads=4, validation_cores=1, seed=1, drain_grace_fraction=0.0, audit=True,
    fault_tolerance=_ft(queue_capacity=2, overflow_policy="block-producer"),
    validator_faults=ValidatorChaosConfig.parse(["verdict-loss=1"], seed=1),
)))
def test_the_views_agree(run):
    _assert_views_agree(*_run(*run))


@pytest.mark.slow
@settings(max_examples=150, deadline=None)
@given(run=_runs(max_ops=200))
def test_the_views_agree_sweep(run):
    _assert_views_agree(*_run(*run))


def test_every_queue_drop_ends_in_a_drop_marker(tmp_path):
    """A log evicted from a bounded queue used to end its span chain in
    ``closure.run``: from the spans alone nobody could say why it was
    never validated."""
    spans_out, ft_out = tmp_path / "spans.json", tmp_path / "ft.json"
    assert main([
        "perf", "--app", "memcached", "--ops", "400", "--threads", "4",
        "--cores", "1", "--queue-capacity", "8", "--overflow-policy", "drop-oldest",
        "--spans-out", str(spans_out), "--ft-json", str(ft_out),
    ]) == 0
    ledger = json.loads(ft_out.read_text())["ledger"]
    assert ledger["drop_reasons"].get("evicted-oldest", 0) > 0, ledger
    ends = _terminal_markers(load_spans_chrome(str(spans_out)))
    assert len(ends) == ledger["enqueued"]
    assert Counter(MARKERS[marker.stage] for marker in ends.values()) == Counter(
        {state: ledger[state] for state in MARKERS.values()}
    )
    assert Counter(
        marker.args["reason"] for marker in ends.values() if marker.stage == "drop"
    ) == Counter(ledger["drop_reasons"])


def test_phoenix_runs_report_their_ledger():
    config = PipelineConfig(app_threads=4, seed=7, drain_grace_fraction=0.0)
    result = run_phoenix(
        phoenix_scenario(words_per_chunk=800, vocabulary_size=100), 3200, config
    )
    ledger = result.ledger
    assert ledger["outstanding"] == 0 and ledger["enqueued"] > 0, ledger
    assert ledger["validated"] == result.metrics.validated
    assert ledger["dropped"] == ledger["drop_reasons"].get("deadline", 0)
    assert ledger["skipped"] + ledger["dropped"] == result.metrics.skipped
    assert run_phoenix(phoenix_scenario(words_per_chunk=800, vocabulary_size=100),
                       3200, config, variant="vanilla").ledger is None


# -- the guard -----------------------------------------------------------
#: ledger terminal methods, and ``Validator.skip`` / ``.drop``
_SETTLING_CALLS = {"validated", "skipped", "dropped", "fallback", "skip", "drop"}
_COVERAGE_COUNTERS = {"validated", "skipped"}
#: RBV replicas replay whole requests: no validation plane, no ledger
_RBV_REPLICAS = {"pipeline.run_rbv_server.replica_process",
                 "phoenix.run_phoenix.make_replica_workers.worker"}
_DOOR = "pipeline.DriverSession.settle"


class _Sites(ast.NodeVisitor):
    """Settling calls, coverage-counter bumps and canary checks, each with
    the qualified name of the function (lambdas included) it sits in."""

    def __init__(self):
        self.scope: list[str] = []
        self.settles, self.counts, self.canary_checks = [], [], []

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _SETTLING_CALLS:
            self.settles.append(".".join(self.scope))
        if isinstance(func, ast.Name) and func.id == "is_canary_log":
            self.canary_checks.append(".".join(self.scope))
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        if isinstance(node.target, ast.Attribute) and node.target.attr in _COVERAGE_COUNTERS:
            self.counts.append(".".join(self.scope))
        self.generic_visit(node)


@pytest.fixture(scope="module")
def sites():
    visitor = _Sites()
    for path in sorted(HARNESS.glob("*.py")):
        visitor.scope = [path.stem]
        visitor.visit(ast.parse(path.read_text()))
    return visitor


class TestOneDoor:
    """Nothing in ``repro.harness`` settles a log but the door."""

    def test_only_the_door_settles(self, sites):
        assert set(sites.settles) == {_DOOR}

    def test_only_the_door_counts_coverage(self, sites):
        assert set(sites.counts) - _RBV_REPLICAS == {_DOOR}

    def test_the_canary_rule_sits_in_three_places(self, sites):
        """``decide``'s sampler bypass, the door, and the re-dispatch
        exposure (a backoff is not a terminal state)."""
        assert sorted(sites.canary_checks) == [
            "chaos.Supervisor.ticker",
            "pipeline.DriverSession.decide",
            "pipeline.DriverSession.settle",
        ]
