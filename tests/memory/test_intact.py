"""Intact versions (DESIGN §13.6, rule 2): a CRC is computed where a fault
can have touched the bytes.

The simulator corrupts a payload one way: a faulty control-path
instruction rewrites its bytes in transit.  A version whose sealed payload
the heap made, or whose bytes arrived as the sender's own object, is
*intact*: its first-load probe passes without serializing it, and its
header CRC is computed only when something reads it.  This file
holds the licence for that and the oracle; the counts that say where it
is taken, and the detections it keeps, are ``test_probe_counts.py``'s:

* the licence: a sealed value decodes to itself type for type and float
  bit for bit, and its CRC is the CRC of its bytes; any list, dict,
  ``bytes`` subclass or ``IntEnum`` inside makes a value unsealed;
* which versions are intact, and which hops;
* the oracle (``-m slow``): every driver-golden config gives the same
  ``checksum.verify`` stream and published record with the known path
  forced off from the test.
"""

from __future__ import annotations

import enum
import json
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps import common
from repro.machine.faults import Fault, FaultKind
from repro.machine.instruction import Site
from repro.machine.units import Unit
from repro.memory import heap as heap_module
from repro.memory.checksum import (
    MAX_NESTING,
    checksum_of,
    crc16,
    deserialize,
    sealed,
    serialize,
)
from repro.memory.heap import VersionedHeap
from repro.memory.pointer import OrthrusPtr
from repro.memory.version import INTACT, Version
from repro.runtime.orthrus import OrthrusRuntime


# ----------------------------------------------------------------------
# the licence
# ----------------------------------------------------------------------
leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=1 << 64)
    | st.floats()
    | st.text(max_size=12)
    | st.binary(max_size=12)
)
sealed_values = st.recursive(
    leaves, lambda children: st.lists(children, max_size=4).map(tuple), max_leaves=16
)


class Colour(enum.IntEnum):
    RED = 1


class Blob(bytes):
    pass


poisons = (
    st.lists(leaves, max_size=2)
    | st.dictionaries(st.text(max_size=3), leaves, max_size=2)
    | st.binary(max_size=4).map(Blob)
    | st.sampled_from(list(Colour))
)


def _bury(inner):
    """``inner`` somewhere inside a tuple of sealed siblings."""
    siblings = st.lists(leaves, max_size=2)
    return st.tuples(siblings, inner, siblings).map(lambda t: (*t[0], t[1], *t[2]))


poisoned = st.recursive(poisons, _bury, max_leaves=4)


def _same(a, b) -> bool:
    """Equal type for type, float bit for bit."""
    if type(a) is not type(b):
        return False
    if type(a) is tuple:
        return len(a) == len(b) and all(map(_same, a, b))
    if type(a) is float:
        return struct.pack("<d", a) == struct.pack("<d", b)
    return a == b


@given(sealed_values)
def test_a_sealed_value_decodes_to_itself_and_its_crc_is_its_bytes_crc(value):
    assert sealed(value) and sealed(value, pointers=True)
    data = serialize(value)
    assert _same(deserialize(data), value)
    assert checksum_of(value) == crc16(data)


@given(poisoned)
def test_a_list_dict_bytes_subclass_or_intenum_inside_unseals(value):
    assert not sealed(value)
    assert not sealed(value, pointers=True)


def test_pointers_are_sealed_only_where_the_heap_installs_them():
    heap = VersionedHeap()
    value = ("k", OrthrusPtr(heap, heap.allocate(1)))
    assert sealed(value, pointers=True) and not sealed(value)
    with pytest.raises(ValueError):  # a pointer travels by id; it does not decode
        deserialize(serialize(value))


def test_what_serialize_refuses_or_deserialize_rejects_is_not_sealed():
    assert not sealed(("\ud800",)) and not sealed("\ud800")
    assert sealed(("é",))
    deep = ()
    for _ in range(MAX_NESTING + 1):
        deep = (deep,)
    assert not sealed(deep)
    with pytest.raises(ValueError):
        deserialize(serialize(deep))
    assert not sealed(object()) and not sealed((1, object()))


class TestIntactVersions:
    def test_a_heap_made_sealed_version_is_intact_and_its_crc_is_computed_when_read(self):
        heap = VersionedHeap()
        version = heap.latest(heap.allocate(("k", 1)))
        assert version.intact and version.crc is INTACT
        assert version.probe()
        assert version.checksum == checksum_of(("k", 1))

    def test_a_mutable_payload_is_checksummed_when_it_is_stored(self):
        heap = VersionedHeap()
        obj = heap.allocate(["k", 1])
        version = heap.latest(obj)
        assert not version.intact and version.crc == checksum_of(["k", 1])
        version.value.append(2)
        assert not version.probe()

    def test_a_received_version_is_intact_only_when_said(self):
        heap = VersionedHeap()
        crc = checksum_of(("k", 1))
        version = heap.latest(heap.allocate(("k", 1), checksum_override=crc))
        assert not version.intact and version.checksum == crc
        version = heap.latest(heap.allocate(("k", 1), checksum_override=INTACT))
        assert version.intact and version.checksum == crc

    def test_the_runtime_receives_an_intact_payload_with_its_own_crc(self):
        runtime = OrthrusRuntime()
        crc = checksum_of(("k", 1))
        version = runtime.heap.latest(runtime.receive(("k", 1), INTACT).obj_id)
        assert version.intact and version.checksum == crc
        version = runtime.heap.latest(runtime.receive(("k", 1), crc).obj_id)
        assert not version.intact and version.checksum == crc

    def test_no_checksums_no_header(self):
        heap = VersionedHeap(checksums=False)
        version = heap.latest(heap.allocate(("k", 1)))
        assert version.crc is None and version.checksum is None


def test_a_hop_is_intact_until_a_fault_rewrites_its_bytes():
    runtime = OrthrusRuntime()
    core = runtime.current_core()
    value = ("key-00000042", "v" * 40)
    arrived, intact = common.hop(core, value, "hop")
    assert intact and arrived.data == serialize(value)
    assert common.hop(core, ["key", 1], "hop")[1] is False  # not sealed
    core.arm(Fault(unit=Unit.ALU, kind=FaultKind.BITFLIP, bit=100,
                   site=Site("hop", "copy", 0)))
    arrived, intact = common.hop(core, value, "hop")
    assert not intact and arrived.data != serialize(value)


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------
def _never_sealed(value, pointers=False) -> bool:
    return False


def _golden_grid():
    from tests.harness.golden_grid import GRID

    return sorted(GRID)


@pytest.mark.slow
@pytest.mark.parametrize("key", _golden_grid())
def test_oracle_driver_golden(key):
    from tests.harness.golden_grid import execute, golden_record

    sides, probed = [], []
    real_probe = Version.probe
    for forced in (True, False):
        intact = []
        with pytest.MonkeyPatch.context() as patch:
            if forced:  # no version is intact: every probe serializes
                patch.setattr(heap_module, "sealed", _never_sealed)
                patch.setattr(common, "sealed", _never_sealed)
            patch.setattr(
                Version, "probe", lambda version: intact.append(version.intact)
                or real_probe(version)
            )
            result, obs = execute(key)
        verifies = [
            event.as_dict() for event in obs.tracer if event.kind == "checksum.verify"
        ] if obs else []
        sides.append((json.dumps(golden_record(result, obs), sort_keys=True), verifies))
        probed.append(intact)
    assert sides[1] == sides[0]
    forced_intact, shipped_intact = probed
    assert not any(forced_intact)
    assert len(shipped_intact) == len(forced_intact)
    # the same probes, and the shipped side decides some of them without
    # serializing (phoenix's dict containers are never intact)
    assert any(shipped_intact) or not shipped_intact
