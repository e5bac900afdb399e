"""A healthy core's control path builds nothing a fault could not touch
(DESIGN §13.6, eighth spend).  Counts, not clocks.

Each count test serves 400 requests through a DES driver and counts the
control-path work that was done for every request even on a core no fault
can reach:

* every hop serialized its payload, CRC'd it and built two ``Packet``s; a
  hop no armed fault can match now issues its ``copy`` for the payload's
  length and builds none of them;
* every ``Core.scope`` built a ``Trace`` nothing read; only a closure's
  ``ExecutionContext`` builds one now;
* a memcached request looked its core up three or four times; every server
  looks it up once per request.

The detection tests hold on both sides of that change: a fired ``copy``
fault on either hop is a ``checksum`` detection, and a core armed with a
fault that no hop's ``copy`` can match detects what it detects when every
hop moves its bytes.
"""

from __future__ import annotations

import pytest

from repro.apps import common
from repro.closures.context import ExecutionContext
from repro.harness.pipeline import (
    PipelineConfig,
    run_orthrus_server,
    run_rbv_server,
    run_vanilla_server,
)
from repro.harness.scenarios import lsmtree_scenario, masstree_scenario, memcached_scenario
from repro.machine.core import Core
from repro.machine.faults import Fault, FaultKind
from repro.machine.instruction import Site, Trace
from repro.machine.units import Unit
from repro.runtime.orthrus import OrthrusRuntime
from repro.workloads.base import Op, OpKind

OPS = 400

RUNS = {
    "memcached": (run_orthrus_server, memcached_scenario),
    "masstree": (run_orthrus_server, masstree_scenario),
    "lsmtree": (run_orthrus_server, lsmtree_scenario),
    "memcached-vanilla": (run_vanilla_server, memcached_scenario),
    "memcached-rbv": (run_rbv_server, memcached_scenario),
}


@pytest.mark.parametrize("run", list(RUNS))
def test_a_fault_free_run_builds_no_hop_bytes_and_no_control_trace(run, monkeypatch):
    driver, scenario = RUNS[run]
    serialized, crcs, lookups = [], [], []
    traces, contexts = [0], [0]
    real_serialize, real_crc16 = common.serialize, common.crc16
    real_init, real_enter = Trace.__init__, ExecutionContext.__enter__
    real_lookup = OrthrusRuntime.current_core

    def init(trace, *args, **kwargs):
        traces[0] += 1
        real_init(trace, *args, **kwargs)

    def enter(ctx):
        contexts[0] += 1
        return real_enter(ctx)

    # Packet.wrap and the client's response check resolve these per call
    monkeypatch.setattr(common, "serialize", lambda v: serialized.append(v) or real_serialize(v))
    monkeypatch.setattr(common, "crc16", lambda data: crcs.append(data) or real_crc16(data))
    monkeypatch.setattr(Trace, "__init__", init)
    monkeypatch.setattr(ExecutionContext, "__enter__", enter)
    monkeypatch.setattr(
        OrthrusRuntime, "current_core", lambda runtime: lookups.append(1) or real_lookup(runtime)
    )
    result = driver(scenario(), OPS, PipelineConfig())
    assert not result.crashed and result.detections == 0
    assert serialized == [] and crcs == []
    assert contexts[0] >= OPS  # a closure per request, at least
    assert traces[0] == contexts[0]
    servers = 2 if driver is run_rbv_server else 1  # RBV's primary and replica
    assert len(lookups) == servers * OPS


@pytest.mark.parametrize("label", ["mc.control.rx", "mc.control.tx"])
def test_a_fired_control_copy_fault_is_a_checksum_detection(label):
    runtime = OrthrusRuntime(mode="queued")
    server = memcached_scenario().build(runtime)
    core = runtime.current_core()
    server.handle(Op(OpKind.SET, "key-00000042", "v" * 40))
    # bit 100 lies in the payload's third character: the bytes still
    # decode, to a value the sender's CRC does not cover
    core.arm(Fault(unit=Unit.ALU, kind=FaultKind.BITFLIP, bit=100, site=Site(label, "copy", 0)))
    server.handle(Op(OpKind.SET, "key-00000043", "w" * 40))  # one rx hop
    response = server.handle(Op(OpKind.GET, "key-00000042"))  # one tx hop
    core.disarm()
    assert server.handle(Op(OpKind.GET, "key-00000042")) == "v" * 40
    assert runtime.detections == 1
    assert runtime.report.first.kind == "checksum"
    assert "CRC mismatch" in runtime.report.first.detail
    assert (response is None) == (label == "mc.control.tx")


@pytest.mark.parametrize("fault, detects", [
    (Fault(Unit.ALU, FaultKind.BITFLIP, bit=3, site=Site("mc.set", "hash64", 0)), True),
    (Fault(Unit.ALU, FaultKind.BITFLIP, bit=5, site=Site("mc.get", "hash64", 0)), True),
    (Fault(Unit.FPU, FaultKind.BITFLIP, bit=7), False),
], ids=["set-site", "get-site", "fpu-wide"])
def test_a_fault_no_copy_can_match_detects_as_when_every_hop_moves_bytes(
    fault, detects, monkeypatch
):
    config = PipelineConfig(deferred_faults=((0, fault), (1, fault)))
    shipped = run_orthrus_server(memcached_scenario(), OPS, config)
    # every hop believes a fault can reach its copy: the bytes travel
    monkeypatch.setattr(Core, "can_fault", lambda core, unit, function, opcode: True)
    moved = run_orthrus_server(memcached_scenario(), OPS, config)
    assert not shipped.crashed and not moved.crashed
    assert shipped.responses == moved.responses and shipped.digest == moved.digest
    assert shipped.detections == moved.detections and (shipped.detections > 0) == detects
    assert [e.detail for e in shipped.runtime.report.events] == [
        e.detail for e in moved.runtime.report.events
    ]
    machines = shipped.runtime.machine, moved.runtime.machine
    assert [c.instructions for c in machines[0].cores] == [c.instructions for c in machines[1].cores]
    assert [c.total_cycles for c in machines[0].cores] == [c.total_cycles for c in machines[1].cores]
