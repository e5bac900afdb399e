"""Every kind of mismatch, end to end, against the parent commit's text.

The comparison is the detector, and its ``detail`` strings enter reports
and golden files.  ``tests/fixtures/mismatch_details.json`` was recorded
with the ``src`` of the commit *before* the comparison stopped copying
(``PYTHONPATH=<that commit>/src python tests/validation/test_mismatch_details.py
--write``); each scenario below arms one ALU fault on the APP core, runs one
closure and must report the event recorded there — kind, closure, cores and
``detail`` byte for byte — and, for the closure that overrides ``compare``,
hand that callable the same canonical ``(target, value)`` pairs.

``test_wrong_object_store_diverges`` is the test that fails if the walk
over the outputs skips the target ids: Listing 2's mis-hashed bucket stores
the right bytes to the wrong object.
"""

import json
import pathlib
import sys

import pytest

from repro.baselines.same_core_replay import SameCoreReplayValidator
from repro.closures.annotation import closure
from repro.closures.context import ops
from repro.machine.cpu import Machine
from repro.machine.faults import Fault, FaultKind
from repro.machine.units import Unit
from repro.memory.pointer import orthrus_new
from repro.runtime.orthrus import OrthrusRuntime

FIXTURE = pathlib.Path(__file__).parent.parent / "fixtures" / "mismatch_details.json"

#: flips bit 0 of every ALU result on the APP core: 0 <-> 1, 2 <-> 3
_FLIP = Fault(unit=Unit.ALU, kind=FaultKind.BITFLIP, bit=0)


@closure(name="details.bucket_put")
def bucket_put(buckets, slot, item):
    """Listing 2: the slot is computed on the (faulty) ALU."""
    index = ops().alu.add(slot, 0)
    buckets[index].store(("item", item, orthrus_new(item)))


@closure(name="details.repeat_store")
def repeat_store(ptr, times):
    for step in range(ops().alu.add(times, 0)):
        ptr.store(("step", step))


@closure(name="details.evict")
def evict(ptrs, slot):
    ptrs[ops().alu.add(slot, 0)].delete()


@closure(name="details.total")
def total(ptr, extra):
    return ("sum", ops().alu.add(ptr.load(), extra), [ptr])


@closure(name="details.divide")
def divide(ptr, divisor):
    return ptr.load() // ops().alu.add(divisor, 0)


_SEEN: list = []


def _no_fresh_markers(app_output, val_output):
    """A custom comparison: bitwise, except that it rejects any output
    whose value starts with ``"fresh"`` — and records what it was handed."""
    _SEEN.append([repr(app_output), repr(val_output)])
    return app_output == val_output and app_output[1][0] != "fresh"


@closure(name="details.opinionated", compare=_no_fresh_markers)
def opinionated(ptr):
    ptr.store(("fresh", orthrus_new([1, ("two", 2.0)]), ptr))


def _wrong_object(runtime):
    buckets = [runtime.new(("empty",)), runtime.new(("empty",))]
    bucket_put(buckets, 0, 7)


def _output_count(runtime):
    repeat_store(runtime.new(("step", -1)), 2)


def _delete_set(runtime):
    evict([runtime.new("a"), runtime.new("b")], 0)


def _return_value(runtime):
    total(runtime.new(40), 2)


def _raises(runtime):
    divide(runtime.new(10), 0)


def _custom_compare(runtime):
    opinionated(runtime.new(("stale",)))


SCENARIOS = {
    "wrong_object_store": (_wrong_object, _FLIP),
    "output_count": (_output_count, _FLIP),
    "delete_set": (_delete_set, _FLIP),
    "return_value": (_return_value, _FLIP),
    "reexecution_raises": (_raises, _FLIP),
    "custom_compare_false": (_custom_compare, None),
}


def _event(event) -> dict:
    return {
        "kind": event.kind,
        "closure": event.closure,
        "detail": event.detail,
        "app_core": event.app_core,
        "val_core": event.val_core,
    }


def _run(name: str) -> dict:
    """One scenario on the validator, then its log replayed by the
    same-core baseline on the healthy core (the baseline shares the
    comparison; only its ``raised`` wording is its own)."""
    body, fault = SCENARIOS[name]
    machine = Machine(cores_per_node=4, numa_nodes=1)
    if fault is not None:
        machine.arm(0, fault)
    runtime = OrthrusRuntime(
        machine=machine, app_cores=[0], validation_cores=[1], mode="queued"
    )
    replayed: list = []
    replayer = SameCoreReplayValidator(runtime.heap, runtime.clock, replayed.append)
    del _SEEN[:]
    with runtime:
        body(runtime)
        logs = runtime.queues.drain()
        assert len(logs) == 1
        replayer.replay(logs[0], machine.core(1))
        replay_saw = list(_SEEN)
        del _SEEN[:]
        runtime.validator.validate(logs[0], machine.core(1))
    return {
        "validator": [_event(event) for event in runtime.report.events],
        "same_core_replay": [_event(event) for event in replayed],
        "compare_saw": list(_SEEN),
        "replay_compare_saw": replay_saw,
    }


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_scenario(recorded):
    assert sorted(recorded) == sorted(SCENARIOS)
    details = {recorded[name]["validator"][0]["detail"] for name in SCENARIOS}
    assert details == {
        "output #1 diverged",
        "output count diverged: app=3 val=2",
        "delete sets diverged",
        "return value diverged",
        "re-execution raised ZeroDivisionError: integer division or modulo by zero",
    }


@pytest.mark.parametrize("name", sorted(set(SCENARIOS) - {"wrong_object_store"}))
def test_detection_equals_the_parent_commits(recorded, name):
    assert _run(name) == recorded[name]


def test_wrong_object_store_diverges(recorded):
    observed = _run("wrong_object_store")
    assert observed == recorded["wrong_object_store"]
    # the stored bytes agree; only the target tells the two runs apart
    assert [e["detail"] for e in observed["validator"]] == ["output #1 diverged"]
    assert [e["detail"] for e in observed["same_core_replay"]] == ["output #1 diverged"]


def test_custom_compare_is_handed_canonical_pairs(recorded):
    # the new object's own output first, then the store that points at it
    # and at its own (pre-existing) target
    store = "(('ptr', 1), ('fresh', ('ptr:new', 0), ('ptr', 1)))"
    assert recorded["custom_compare_false"]["compare_saw"] == [
        ["(('ptr:new', 0), [1, ('two', 2.0)])"] * 2,
        [store, store],
    ]
    assert recorded["custom_compare_false"]["replay_compare_saw"] == (
        recorded["custom_compare_false"]["compare_saw"]
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/validation/test_mismatch_details.py --write")
    FIXTURE.write_text(
        json.dumps({name: _run(name) for name in sorted(SCENARIOS)}, indent=1, sort_keys=True)
        + "\n"
    )
