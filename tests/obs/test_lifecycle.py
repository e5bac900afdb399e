"""One lifecycle recorder (DESIGN §7.1).

Every closure-log transition's telemetry is written by
``repro.obs.lifecycle``: the modules that drive the transitions call its
methods and never the registry, tracer or span APIs, and no per-log site
reads ``obs.enabled``.  The taxonomy table in DESIGN §7.1 is held both to
the recorder (one row per method) and to what runs emit (every emitted
family, trace kind and span stage is documented; every documented one is
emitted), so the table cannot drift from the stream.
"""

import ast
import inspect
import pathlib
import re

import pytest

import repro
from repro.faultinject.validator_faults import ValidatorChaosConfig
from repro.harness.pipeline import PipelineConfig, run_orthrus_server
from repro.harness.scenarios import masstree_scenario, memcached_scenario
from repro.machine.cpu import Machine
from repro.obs import Observability
from repro.obs.lifecycle import NULL_LIFECYCLE, Lifecycle, NullLifecycle
from repro.obs.observability import NULL_OBS
from repro.obs.spans import STAGE_ORDER
from repro.runtime.degradation import FaultToleranceConfig
from repro.runtime.orthrus import OrthrusRuntime
from repro.runtime.sampling import AlwaysSampler
from repro.validation.watchdog import WatchdogConfig
from tests.harness.golden_grid import grid_run

SRC = pathlib.Path(repro.__file__).parent
DESIGN = SRC.parents[1] / "DESIGN.md"

#: the modules that drive lifecycle transitions
CALLERS = (
    "harness/pipeline.py", "harness/chaos.py", "runtime/orthrus.py",
    "runtime/sampling.py", "validation/validator.py", "validation/queues.py",
    "validation/watchdog.py", "memory/reclaim.py", "closures/context.py",
)
#: (owner, method) pairs only the recorder may call
_WRITES = {("spans", "record"), ("tracer", "emit"),
           ("registry", "counter"), ("registry", "histogram")}
#: functions that may read ``.enabled``: set-up code (constructors,
#: callback gauges, observers, the store-depth gauge)
_SETUP = {"__init__", "_register_gauges", "run_orthrus_server"}
#: layers whose telemetry is not a closure-log transition
_OTHER_LAYERS = ("runtime/degradation.py", "runtime/safemode.py")


def _public_methods(cls) -> dict:
    return {
        name: [(p.name, p.kind) for p in inspect.signature(fn).parameters.values()]
        for name, fn in vars(cls).items()
        if callable(fn) and not name.startswith("_")
    }


class _Reads(ast.NodeVisitor):
    """``.enabled`` reads and telemetry writes, each with its function."""

    def __init__(self):
        self.scope = ["<module>"]
        self.enabled, self.writes = [], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Attribute(self, node):
        if node.attr == "enabled" and isinstance(node.ctx, ast.Load):
            self.enabled.append(self.scope[-1])
        self.generic_visit(node)

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Attribute):
            owner = func.value
            name = owner.attr if isinstance(owner, ast.Attribute) else getattr(owner, "id", "")
            if (name, func.attr) in _WRITES:
                self.writes.append(f"{self.scope[-1]}:{node.lineno}")
        self.generic_visit(node)


def _scan(rel: str) -> _Reads:
    reads = _Reads()
    reads.visit(ast.parse((SRC / rel).read_text()))
    return reads


class TestOneRecorder:
    @pytest.mark.parametrize("rel", CALLERS)
    def test_callers_write_no_telemetry_themselves(self, rel):
        assert _scan(rel).writes == []

    def test_enabled_is_read_by_set_up_code_only(self):
        reads = []
        for path in sorted(SRC.rglob("*.py")):
            rel = path.relative_to(SRC).as_posix()
            if not rel.startswith("obs/"):
                reads += [(rel, scope) for scope in _scan(rel).enabled]
        assert len(reads) <= 25, reads
        stray = [(rel, scope) for rel, scope in reads
                 if scope not in _SETUP and not rel.startswith(_OTHER_LAYERS)]
        assert stray == []

    def test_the_null_twin_mirrors_the_recorder(self):
        assert _public_methods(NullLifecycle) == _public_methods(Lifecycle)
        assert NULL_OBS.lifecycle is NULL_LIFECYCLE
        families = len(NULL_OBS.registry.snapshot()["metrics"])
        for name, params in _public_methods(NullLifecycle).items():
            positional = [None] * sum(
                kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for _, kind in params[1:]
            )
            assert getattr(NULL_LIFECYCLE, name)(*positional) is None
        assert len(NULL_OBS.registry.snapshot()["metrics"]) == families

    def test_observability_records_through_its_own_stores(self):
        obs = Observability()
        lifecycle = obs.lifecycle
        assert isinstance(lifecycle, Lifecycle)
        assert (lifecycle.registry, lifecycle.tracer, lifecycle.spans) == (
            obs.registry, obs.tracer, obs.spans
        )

    def test_the_runtime_no_longer_records_verdict_spans(self):
        assert not hasattr(OrthrusRuntime, "record_verdict_spans")


def _bounded_library_run(policy: str) -> Observability:
    """50 memcached ops through a 2-slot library queue, then a drain."""
    obs = Observability()
    runtime = OrthrusRuntime(
        machine=Machine(cores_per_node=4, numa_nodes=1), mode="queued", obs=obs,
        queue_capacity=2, overflow_policy=policy,
    )
    scenario = memcached_scenario()
    server = scenario.build(runtime)
    with runtime:
        for op in scenario.make_ops(50, 1):
            server.handle(op)
        runtime.drain()
    return obs


class TestLibraryDropMarker:
    """A log a bounded library queue drops ends its span chain in a
    ``drop`` marker (reason=), as a DES drop always did."""

    @pytest.mark.parametrize("policy, reason", [("reject", "capacity"),
                                                ("drop-oldest", "evicted-oldest")])
    def test_every_chain_ends_in_one_terminal_marker(self, policy, reason):
        obs = _bounded_library_run(policy)
        chains: dict[int, list] = {}
        for span in obs.spans:
            chains.setdefault(span.seq, []).append(span)
        ends = {seq: chain[-1] for seq, chain in chains.items()}
        assert {span.stage for span in ends.values()} <= {"verdict", "skip", "drop"}
        for chain in chains.values():
            assert sum(s.stage in ("verdict", "skip", "drop") for s in chain) == 1
        drops = [span for span in ends.values() if span.stage == "drop"]
        assert drops and {span.args["reason"] for span in drops} == {reason}
        assert len(drops) == obs.registry.value("orthrus_validation_drops_total")
        assert len(drops) == obs.registry.value("orthrus_queue_drops_total")


def _taxonomy() -> dict:
    """DESIGN §7.1 as {method: {stages, kinds, families, planes}}."""
    section = DESIGN.read_text().split("### 7.1 Lifecycle taxonomy", 1)[1]
    rows = {}
    for line in section.split("\n### ", 1)[0].splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 5 and cells[0].startswith("`"):
            (method,), *columns = (re.findall(r"`([^`]+)`", cell) for cell in cells)
            rows[method] = dict(zip(("stages", "kinds", "families", "planes"),
                                    map(set, columns)))
    return rows


#: three golden-grid runs between them take both DES plane policy sets and
#: every observer; the slowed validators add the watchdog's timeouts,
#: offenders, quarantines, duplicates and fallbacks and the deadline drop;
#: a slowed last validator adds the refused quarantine; the bounded
#: library run adds the library-only pops and its queue drops
_GOLDEN_RUNS = ("plain/overload-all-observers", "ft/chaos-all-observers",
                "ft/overload-ladder")
_SLOW_VALIDATORS = dict(
    app_threads=4, validation_cores=3, drain_grace_fraction=0.0,
    fault_tolerance=FaultToleranceConfig(
        watchdog=WatchdogConfig(deadline=10e-6, max_retries=1),
        check_interval=2.5e-6, queue_capacity=8,
    ),
    validator_faults=ValidatorChaosConfig.parse(["slowdown=2"], seed=5, slowdown_factor=30),
)
_SLOW_LAST_VALIDATOR = dict(
    _SLOW_VALIDATORS, validation_cores=1,
    validator_faults=ValidatorChaosConfig.parse(["slowdown=1"], seed=5, slowdown_factor=30),
)


@pytest.fixture(scope="module")
def emitted() -> dict:
    slowed, last = Observability(), Observability()
    for obs, config in ((slowed, _SLOW_VALIDATORS), (last, _SLOW_LAST_VALIDATOR)):
        run_orthrus_server(masstree_scenario(), 200, PipelineConfig(
            seed=7, obs=obs, sampler=AlwaysSampler(), **config
        ))
    runs = [grid_run(key) for key in _GOLDEN_RUNS] + [
        {
            "families": {f["name"] for f in obs.registry.snapshot()["metrics"]},
            "kinds": {event.kind for event in obs.tracer},
            "stages": {span.stage for span in obs.spans},
        }
        for obs in (slowed, last, _bounded_library_run("reject"))
    ]
    return {
        what: set().union(*(run[what] for run in runs))
        for what in ("families", "kinds", "stages")
    }


class TestTaxonomyDrift:
    def test_one_row_per_recorder_method(self):
        rows = _taxonomy()
        assert set(rows) == set(_public_methods(Lifecycle))
        for method, row in rows.items():
            assert row["planes"] and row["planes"] <= {"library", "plain", "ft"}, method
            assert row["stages"] <= set(STAGE_ORDER), method

    def test_every_emitted_name_is_documented(self, emitted):
        documented = set(re.findall(r"`([\w.]+)(?:\{[^`\n]*\})?`", DESIGN.read_text()))
        missing = {
            what: sorted(names - documented) for what, names in emitted.items()
        }
        assert missing == {"families": [], "kinds": [], "stages": []}

    def test_every_lifecycle_row_is_emitted(self, emitted):
        silent = {
            method: sorted(set().union(*(row[what] - emitted[what] for what in emitted)))
            for method, row in _taxonomy().items()
        }
        assert {method: names for method, names in silent.items() if names} == {}
