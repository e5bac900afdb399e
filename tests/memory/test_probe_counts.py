"""A CRC is computed where a fault can have touched the bytes.  Counts, not
clocks.

In a fault-free run every version a closure first loads is intact (DESIGN
§13.6, rule 2; ``tests/memory/test_intact.py`` holds the licence), so the
first-load probes serialize nothing and no request is decoded: the
receiver takes the sender's value.  Before intact versions every probe
serialized and checksummed its payload and every request and response was
decoded, so the count test fails at that commit on its first count.  The
detection tests hold on both sides of that change: a payload that can have
changed is still serialized and checksummed on its first load.
"""

from __future__ import annotations

import pytest

from repro.apps import common
from repro.closures.annotation import closure
from repro.closures.context import ExecutionContext
from repro.harness.pipeline import PipelineConfig, run_orthrus_server
from repro.harness.scenarios import lsmtree_scenario, memcached_scenario
from repro.machine.faults import Fault, FaultKind
from repro.machine.instruction import Site
from repro.machine.units import Unit
from repro.memory import checksum
from repro.obs import Observability
from repro.runtime.orthrus import OrthrusRuntime
from repro.workloads.base import Op, OpKind


@pytest.mark.parametrize(
    "scenario", [lsmtree_scenario, memcached_scenario], ids=["lsmtree", "memcached"]
)
def test_a_fault_free_run_serializes_no_probe_and_decodes_nothing(scenario, monkeypatch):
    loading = [0]
    probe_serializations, decodes = [], []
    real_load, real_items = ExecutionContext.load, checksum._serialize_items
    real_deserialize = checksum.deserialize

    def load(ctx, obj_id):
        loading[0] += 1
        try:
            return real_load(ctx, obj_id)
        finally:
            loading[0] -= 1

    def items(values, out):
        if loading[0]:
            probe_serializations.append(values)
        return real_items(values, out)

    monkeypatch.setattr(ExecutionContext, "load", load)
    # checksum_of and serialize resolve this name per call, and so does
    # its own recursion: every serialization anywhere passes through it
    monkeypatch.setattr(checksum, "_serialize_items", items)
    monkeypatch.setattr(
        common, "deserialize", lambda data: decodes.append(data) or real_deserialize(data)
    )
    obs = Observability()
    result = run_orthrus_server(scenario(), 200, PipelineConfig(obs=obs))
    assert result.detections == 0
    # every probe is still made, and emitted
    probes = [event.fields for event in obs.tracer if event.kind == "checksum.verify"]
    assert len(probes) >= 100 and all(fields["ok"] for fields in probes)

    assert probe_serializations == []
    assert decodes == []


@closure(name="probe_counts_test.first")
def first(ptr):
    return ptr.load()[0]


@pytest.mark.parametrize("payload", [["a", 1], ("a", 1)], ids=["list", "tuple"])
def test_a_payload_mutated_after_its_store_is_caught_by_the_probe(payload):
    runtime = OrthrusRuntime(mode="queued")
    with runtime:
        ptr = runtime.new(payload)
        if type(payload) is list:
            runtime.heap.latest(ptr.obj_id).value.append(2)
        assert first(ptr) == "a"
    assert runtime.detections == (1 if type(payload) is list else 0)
    assert runtime.report.count("checksum") == runtime.detections


def test_a_fired_control_rx_copy_fault_is_still_detected():
    runtime = OrthrusRuntime(mode="queued")
    server = memcached_scenario().build(runtime)
    core = runtime.current_core()
    # bit 100 lies in the key's third character: the request still
    # decodes, to a key the sender's CRC does not cover
    core.arm(Fault(unit=Unit.ALU, kind=FaultKind.BITFLIP, bit=100,
                   site=Site("mc.control.rx", "copy", 0)))
    server.handle(Op(OpKind.SET, "key-00000042", "v" * 40))
    core.disarm()
    server.handle(Op(OpKind.SET, "key-00000043", "w" * 40))
    assert runtime.detections == 1
    assert runtime.report.first.kind == "checksum"
    assert "CRC mismatch" in runtime.report.first.detail
