"""The known verdict (DESIGN §13.6, rule 7): a verdict is computed where a
fault can make it differ.

A closure is deterministic given its log and a fault is core-local, so
when no armed fault fired during a log's APP run and the validation core
carries none, the replay's verdict is known before it runs.
``DriverSession.reexecute`` then records that pass and credits the
validation core with the APP trace's instructions and cycles instead of
replaying on the host.  This file holds the licence for that shortcut and
the counts that say where it is taken:

* the licence: on every app, a fault-free log replayed in full passes,
  and its cycles, instruction count and unit counts are the APP trace's;
* a fired fault keeps the full replay, and the replay mismatches;
* the shapes that keep the replay are named: a canary probe, a closure
  with a custom ``compare`` and one that opens a core scope of its own;
* coverage counts: no full replay in a fault-free run, and in an armed
  campaign trial exactly one per log whose APP run fired a fault;
* the oracle (``-m slow``): every driver-golden config and the Table 2
  campaign give the same per-log verdicts, cycles, validation-core work
  and detections with the full replay forced as with the shipped decision.
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.closures.annotation import closure
from repro.closures.context import ops
from repro.faultinject import FaultInjectionCampaign, InjectionConfig
from repro.harness import pipeline
from repro.harness.phoenix import run_phoenix
from repro.harness.pipeline import PipelineConfig, run_orthrus_server
from repro.harness.scenarios import (
    lsmtree_scenario,
    masstree_scenario,
    memcached_scenario,
    phoenix_scenario,
)
from repro.machine.cpu import Machine
from repro.machine.faults import Fault, FaultKind
from repro.machine.units import Unit
from repro.obs.canary import CanaryConfig, CanaryScheduler
from repro.runtime.orthrus import OrthrusRuntime
from repro.validation import validator as validator_module
from repro.validation.validator import Validator, replay_needed


def _always_replay(*_args) -> bool:
    return True


class _Replays:
    """Every full replay the validator makes (module-level ``reexecute``),
    with the validation core's work across it."""

    def __init__(self, monkeypatch):
        self.calls: list[tuple] = []
        real = validator_module.reexecute

        def counting(heap, log, core, *args, **kwargs):
            instructions, cycles = core.instructions, core.total_cycles
            rerun = real(heap, log, core, *args, **kwargs)
            self.calls.append((
                log, core, rerun,
                core.instructions - instructions, core.total_cycles - cycles,
            ))
            return rerun

        monkeypatch.setattr(validator_module, "reexecute", counting)


def _run(app: str, n_ops: int, config: PipelineConfig):
    if app == "phoenix":
        scenario = phoenix_scenario(words_per_chunk=40, vocabulary_size=30)
        return run_phoenix(scenario, 20 * n_ops, config)
    factory = {"memcached": memcached_scenario, "masstree": masstree_scenario,
               "lsmtree": lsmtree_scenario}[app]
    return run_orthrus_server(factory(), n_ops, config)


# ----------------------------------------------------------------------
# the licence
# ----------------------------------------------------------------------
@settings(max_examples=12, deadline=None)
@given(
    app=st.sampled_from(["memcached", "masstree", "lsmtree", "phoenix"]),
    shape=st.sampled_from([(1, 1), (2, 1), (2, 2), (4, 1)]),
    seed=st.integers(1, 5),
    n_ops=st.integers(10, 200),
)
def test_a_fault_free_replay_is_its_app_trace(app, shape, seed, n_ops):
    """Replayed in full on a healthy core, every log of a fault-free run
    passes and issues exactly what its APP run issued — so the shortcut
    records what the replay computes, and credits what it charges."""
    app_threads, validation_cores = shape
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "replay_needed", _always_replay)
        replays = _Replays(patch)
        result = _run(app, n_ops, PipelineConfig(
            app_threads=app_threads, validation_cores=validation_cores, seed=seed,
        ))
    assert not result.crashed and replays.calls
    machine = result.runtime.machine
    for log, core, rerun, instructions, cycles in replays.calls:
        trace = log.trace
        assert not replay_needed(log, core, machine), log
        assert rerun.matches, (log, rerun.result.detail)
        assert rerun.val_cycles == trace.cycles == cycles, log
        assert rerun.context.trace.unit_counts == trace.unit_counts, log
        assert instructions == trace.total_instructions, log


@closure(name="known_verdict.double")
def double(ptr):
    value = ops().alu.mul(ptr.load(), 2)
    ptr.store(value)
    return value


def _library(fault=None, fault_core=0):
    machine = Machine(cores_per_node=4, numa_nodes=1)
    if fault is not None:
        machine.arm(fault_core, fault)
    runtime = OrthrusRuntime(machine=machine, app_cores=[0], validation_cores=[1],
                             mode="external")
    logs = []
    runtime._on_log = logs.append
    return runtime, machine, logs


def test_a_fired_fault_takes_the_full_replay_and_mismatches():
    runtime, machine, logs = _library(Fault(Unit.ALU, FaultKind.BITFLIP, bit=4))
    with runtime:
        double(runtime.new(21))
    (log,) = logs
    core = machine.core(1)
    assert log.trace.fired
    assert replay_needed(log, core, machine)
    rerun = validator_module.reexecute(runtime.heap, log, core)
    assert not rerun.matches


def test_an_armed_fault_that_never_fires_leaves_the_verdict_known():
    runtime, machine, logs = _library(Fault(Unit.FPU, FaultKind.BITFLIP, bit=4))
    with runtime:
        double(runtime.new(21))
    (log,) = logs
    assert not log.trace.fired
    assert not replay_needed(log, machine.core(1), machine)
    # ... unless the validation core itself is the armed one, or sites are
    # being recorded on either core
    machine.arm(1, Fault(Unit.SIMD, FaultKind.BITFLIP, bit=4))
    assert replay_needed(log, machine.core(1), machine)
    machine.core(1).disarm()
    machine.core(0).record_sites = True
    assert replay_needed(log, machine.core(1), machine)


def test_the_known_verdict_is_the_replays():
    """``validate(replay=False)`` leaves the outcome and the validation
    core exactly as the replay leaves them."""
    outcomes = []
    for replay in (True, False):
        runtime, machine, logs = _library()
        with runtime:
            double(runtime.new(21))
        core = machine.core(1)
        outcome = runtime.validator.validate(logs[0], core, replay=replay)
        outcomes.append((outcome.passed, outcome.detail, outcome.val_cycles,
                         core.instructions, core.total_cycles,
                         runtime.validator.validated_count))
    assert outcomes[0] == outcomes[1]


# ----------------------------------------------------------------------
# the shapes that keep the replay
# ----------------------------------------------------------------------
def _reject_all(app_output, val_output):
    return False


@closure(name="known_verdict.opinionated", compare=_reject_all)
def opinionated(ptr):
    ptr.store(ops().alu.add(ptr.load(), 1))


@closure(name="known_verdict.scoped")
def scoped(ptr):
    core = ops()
    with core.scope("known_verdict.scoped.inner"):
        core.alu.add(1, 2)
    ptr.store(core.alu.add(ptr.load(), 1))


def test_a_custom_compare_keeps_the_replay():
    """The closure's own verdict rule may reject even a faithful replay."""
    runtime, machine, logs = _library()
    with runtime:
        opinionated(runtime.new(1))
    (log,) = logs
    core = machine.core(1)
    assert not log.trace.fired
    assert not validator_module.reexecute(runtime.heap, log, core).matches
    assert replay_needed(log, core, machine)


def test_a_closure_that_opens_a_core_scope_keeps_the_replay():
    """The core issues the inner scope's instructions, which the closure's
    trace does not count: crediting the trace would undercount."""
    runtime, machine, logs = _library()
    with runtime:
        scoped(runtime.new(1))
    (log,) = logs
    core = machine.core(1)
    before = core.instructions
    assert validator_module.reexecute(runtime.heap, log, core).matches
    assert core.instructions - before > log.trace.total_instructions
    assert log.trace.nested and replay_needed(log, core, machine)


def test_a_canary_probe_keeps_the_replay():
    machine = Machine(cores_per_node=4, numa_nodes=1)
    log = CanaryScheduler(CanaryConfig(), seed=1).next_log(1, 0.0)
    assert log.trace is None and replay_needed(log, machine.core(1), machine)


# ----------------------------------------------------------------------
# coverage counts
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scenario", [lsmtree_scenario, memcached_scenario],
                         ids=["lsmtree", "memcached"])
def test_a_fault_free_run_replays_nothing(monkeypatch, scenario):
    replays = _Replays(monkeypatch)
    result = run_orthrus_server(scenario(), 200, PipelineConfig())
    assert result.metrics.validated > 100
    assert replays.calls == []


def test_an_armed_trial_replays_exactly_the_logs_whose_app_run_fired(monkeypatch):
    campaign = FaultInjectionCampaign(
        memcached_scenario(), 150, InjectionConfig(n_faults=12, seed=1),
        make_pipeline=lambda: PipelineConfig(seed=1, drain_grace_fraction=4.0),
        rbv_runner=None,
    )
    replays = _Replays(monkeypatch)
    sites, golden = campaign.profile()
    # profiling records sites on every core: every validation replays
    assert len(replays.calls) == golden.metrics.validated > 0
    validated = []
    validate = Validator.validate

    def recording(self, log, core, **kwargs):
        validated.append(log)
        return validate(self, log, core, **kwargs)

    monkeypatch.setattr(Validator, "validate", recording)
    for index, fault in enumerate(campaign.plan_faults(sites)):
        replays.calls.clear()
        validated.clear()
        campaign.run_trial(fault, golden, trial_index=index)
        fired = [log.seq for log in validated if log.trace.fired]
        assert [log.seq for log, *_ in replays.calls] == fired
        if fired:
            assert len(fired) < len(validated)
            return
    pytest.fail("no planned fault fired in a validated closure")


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------
class _PerLog:
    """Per validated log: verdict, detail, cycles and the validation core's
    work across the call."""

    def __init__(self, monkeypatch):
        self.rows: list[tuple] = []
        validate = Validator.validate

        def recording(validator, log, core, **kwargs):
            instructions, cycles = core.instructions, core.total_cycles
            outcome = validate(validator, log, core, **kwargs)
            self.rows.append((
                log.seq, log.closure_name, core.core_id, outcome.passed,
                outcome.detail, outcome.val_cycles,
                core.instructions - instructions, core.total_cycles - cycles,
            ))
            return outcome

        monkeypatch.setattr(Validator, "validate", recording)


def _both_ways(run):
    """``run()`` with the full replay forced, then as shipped."""
    sides = []
    for forced in (True, False):
        with pytest.MonkeyPatch.context() as patch:
            if forced:
                patch.setattr(pipeline, "replay_needed", _always_replay)
            per_log = _PerLog(patch)
            published = run()
        sides.append((published, per_log.rows))
    return sides


def _golden_grid():
    from tests.harness.golden_grid import GRID

    return sorted(GRID)


@pytest.mark.slow
@pytest.mark.parametrize("key", _golden_grid())
def test_oracle_driver_golden(key):
    from tests.harness.golden_grid import execute, golden_record

    (full, full_rows), (shipped, shipped_rows) = _both_ways(
        lambda: golden_record(*execute(key))
    )
    assert shipped_rows == full_rows
    assert json.dumps(shipped, sort_keys=True) == json.dumps(full, sort_keys=True)


@pytest.mark.slow
def test_oracle_table2_campaign():
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "benchmarks"))
    import figures

    (full, full_rows), (shipped, shipped_rows) = _both_ways(
        lambda: figures.table2_coverage(0.1)
    )
    assert full_rows and shipped_rows == full_rows
    assert shipped == full
