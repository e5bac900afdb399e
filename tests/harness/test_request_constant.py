"""The per-request constant: nothing is built, imported or recomputed per
request that is empty, already known or cannot match.  Counts, not clocks.

Each guard serves 400 memcached requests through the DES driver and counts
one kind of work the request path used to repeat:

* ``ClosureLog.approx_bytes`` ran three times per log on the plain plane
  (admission, dispatch, comparison cost) and up to four more on the
  fault-tolerant one; it now runs once, when the plane admits the log;
* a core armed with a fault on a unit the workload never issues built a
  ``Site`` for every instruction to ask the fault whether it matched;
* ``hash64`` ran its FNV-1a byte loop on every call, not once per key;
* ``ExecutionContext.canonicalize`` executed a ``from … import`` twice per
  request.
"""

from __future__ import annotations

import builtins
import sys

import pytest

from repro.closures.log import ClosureLog
from repro.faultinject.validator_faults import ValidatorChaosConfig
from repro.harness import pipeline
from repro.harness.pipeline import PipelineConfig, run_orthrus_server
from repro.harness.scenarios import memcached_scenario
from repro.machine import core as core_module
from repro.machine.faults import Fault, FaultKind
from repro.machine.instruction import Site
from repro.machine.units import Unit
from repro.runtime.degradation import FaultToleranceConfig

OPS = 400


@pytest.mark.parametrize("plane", [
    {},
    dict(validation_cores=4, fault_tolerance=FaultToleranceConfig(),
         validator_faults=ValidatorChaosConfig.parse(["crash=0.25", "verdict-loss=0.25"])),
], ids=["plain", "fault-tolerant"])
def test_approx_bytes_runs_once_per_log(plane, monkeypatch):
    measured = []
    real = ClosureLog.approx_bytes

    def counting(log):
        measured.append(log.seq)
        return real(log)

    monkeypatch.setattr(ClosureLog, "approx_bytes", counting)
    result = run_orthrus_server(memcached_scenario(), OPS, PipelineConfig(**plane))
    assert not result.crashed and result.metrics.operations == OPS
    assert len(measured) >= OPS  # one log per memcached request
    assert len(measured) == len(set(measured))


def test_an_fpu_fault_builds_no_site_on_a_core_that_issues_no_fpu(monkeypatch):
    built = []

    class CountingSite(Site):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(core_module, "Site", CountingSite)
    fault = Fault(Unit.FPU, FaultKind.BITFLIP, bit=7)  # unit-wide, every FPU op
    armed = run_orthrus_server(memcached_scenario(), OPS, PipelineConfig(
        deferred_faults=((0, fault), (1, fault)),
    ))
    assert built == []
    machine = armed.runtime.machine
    assert all(machine.core(i).faults == [fault] for i in (0, 1))
    assert machine.core(0).instructions + machine.core(1).instructions > 5 * OPS
    healthy = run_orthrus_server(memcached_scenario(), OPS, PipelineConfig())
    assert armed.digest == healthy.digest and armed.detections == healthy.detections == 0


def test_the_fnv_loop_runs_once_per_distinct_key(monkeypatch):
    memo = getattr(core_module, "_fnv1a", None)
    if memo is not None:
        memo.cache_clear()  # other tests may have hashed these keys
    loops = []
    real_as_bytes = core_module._as_bytes

    def counting_as_bytes(data):
        loops.append(data)
        return real_as_bytes(data)

    keys = []
    real_hash64 = core_module._Alu.hash64

    def recording_hash64(alu, data):
        keys.append((type(data), data))
        return real_hash64(alu, data)

    monkeypatch.setattr(core_module, "_as_bytes", counting_as_bytes)
    monkeypatch.setattr(core_module._Alu, "hash64", recording_hash64)
    # Every validation replays, so each key is hashed again on a second core.
    monkeypatch.setattr(pipeline, "replay_needed", lambda *_args: True)
    result = run_orthrus_server(memcached_scenario(), OPS, PipelineConfig())
    assert not result.crashed
    assert len(keys) >= 2 * OPS  # every request hashes, and so does its validation
    assert len(loops) == len(set(keys))


def test_serving_requests_executes_no_import_statement(monkeypatch):
    run_orthrus_server(memcached_scenario(), 50, PipelineConfig())  # warm every module
    imports = []
    real_import = builtins.__import__

    def counting_import(name, *args, **kwargs):
        imports.append((name, sys._getframe(1).f_code.co_name))
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", counting_import)
    result = run_orthrus_server(memcached_scenario(), OPS, PipelineConfig())
    monkeypatch.undo()
    assert result.metrics.validated > 0
    assert imports == []
