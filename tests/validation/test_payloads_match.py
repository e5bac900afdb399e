"""The lockstep comparison against the copying one it replaced.

``payloads_match(a, b, canon_a, canon_b)`` reads both payloads together;
the code it replaced built ``canonicalize_ptrs`` of each side, serialized
both and compared the byte strings.  That code lives on here, verbatim, as
the oracle (the serializer's oracle is ``tests/memory/test_checksum.py``'s).

Two behaviours differ from the oracle, both on purpose:

* **Lone surrogates.**  ``str.encode`` rejects them, so the old path raised
  ``UnicodeEncodeError`` out of ``serialize``.  The lockstep walk never
  encodes a string leaf — it compares code points — so two payloads whose
  ``str`` leaves hold lone surrogates compare by value and do not raise.
  Inside a shape only the general case knows (a dict, say) the string is
  still serialized and the old error is kept.
* **An unserializable object beside a bitwise-only difference.**  The old
  path fell back to ``==`` over the *whole* payload as soon as anything in
  it could not be serialized, and ``==`` cannot see ``0.0`` vs ``-0.0`` or
  ``True`` vs ``1``.  The walk may return ``False`` at such a leaf before
  it ever reaches the unserializable object: stricter, never laxer.
"""

import dataclasses
import enum
import struct

import pytest
from hypothesis import given, strategies as st

from repro.closures.annotation import user_data
from repro.memory.heap import VersionedHeap
from repro.memory.pointer import OrthrusPtr
from repro.validation.comparator import canonicalize_ptrs, payloads_match, values_equal
from tests.memory.test_checksum import oracle_serialize


# -- the deleted code, verbatim ----------------------------------------
def oracle_canon(value, canon):
    if getattr(value, "__orthrus_ptr__", False):
        return canon(value.obj_id)
    if isinstance(value, tuple):
        return tuple(oracle_canon(item, canon) for item in value)
    if isinstance(value, list):
        return [oracle_canon(item, canon) for item in value]
    if isinstance(value, dict):
        return {key: oracle_canon(item, canon) for key, item in value.items()}
    return value


def oracle_values_equal(a, b) -> bool:
    try:
        return oracle_serialize(a) == oracle_serialize(b)
    except TypeError:
        return bool(a == b)


def oracle_match(a, b, canon_a, canon_b) -> bool:
    return oracle_values_equal(oracle_canon(a, canon_a), oracle_canon(b, canon_b))


# -- the two sides' canonicalisations, shaped like the validator's -------
def canon_app(obj_id):
    """Objects 100.. are this execution's allocations, in that order."""
    return ("ptr:new", obj_id - 100) if obj_id >= 100 else ("ptr", obj_id)


def canon_val(obj_id):
    """Shadow ids -1, -2, .. are this re-execution's allocations."""
    return ("ptr:new", -obj_id - 1) if obj_id < 0 else ("ptr", obj_id)


_HEAP = VersionedHeap()


def ptr(obj_id):
    return OrthrusPtr(_HEAP, obj_id)


@dataclasses.dataclass(frozen=True)
class Logical:
    """A pointer before either side has given it a raw id."""

    new: bool
    k: int

    def render(self, side):
        if not self.new:
            return ptr(self.k)
        return ptr(100 + self.k) if side == "app" else ptr(-self.k - 1)


class Colour(enum.IntEnum):
    RED = 1


class Pair(tuple):
    pass


class TaggedList(list):
    #: a builtin subclass carrying the pointer marker: the canonicaliser
    #: maps it like a pointer, the serializer writes it as a list
    __orthrus_ptr__ = True
    obj_id = 5


@user_data
@dataclasses.dataclass
class Account:
    owner: str
    balance: int


NAN = float("nan")
NAN_SAME_BITS = struct.unpack("<d", struct.pack("<d", NAN))[0]
NAN_OTHER_BITS = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
assert NAN_SAME_BITS is not NAN and struct.pack("<d", NAN_OTHER_BITS) != struct.pack("<d", NAN)

#: every leaf the issue names, few enough that two draws often collide
TRAPS = [
    True, False, 1, 0, 1.0, 0.0, -0.0, 2.5, NAN, NAN_SAME_BITS, NAN_OTHER_BITS,
    Colour.RED, 1 << 70, (1 << 70) + 1, -(1 << 70), None, "", "s", "ptr", "ptr:new", b"s", b"",
    Account("ada", 1), Account("ada", 2), Pair((1, 2)), (1, 2), [1, 2], TaggedList([1, 2]),
    ("ptr", 5), ("ptr:new", 0), ("ptr", 105), ["ptr", 5],
    Logical(True, 0), Logical(True, 1), Logical(False, 5), Logical(False, 7),
    (), [], {}, {1: "a", "1": "b", None: 0, 2.5: ()},
]
leaves = st.sampled_from(TRAPS) | st.integers(-3, 3) | st.text("ab", max_size=2)
dict_keys = st.sampled_from([None, True, 1, 2.5, "k", "j"])
trees = st.recursive(
    leaves,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(dict_keys, children, max_size=3),
    max_leaves=10,
)


def render(tree, side):
    if isinstance(tree, Logical):
        return tree.render(side)
    if type(tree) in (tuple, list):
        return type(tree)(render(item, side) for item in tree)
    if type(tree) is dict:
        return {key: render(item, side) for key, item in tree.items()}
    return tree


def mutate(tree, draw):
    """One edit somewhere in ``tree``: a leaf swapped, a length changed at
    that depth, or a tuple turned into a list of the same items."""
    if type(tree) in (tuple, list):
        action = draw(st.sampled_from(["descend", "drop", "grow", "retype"]))
        if action == "descend" and tree:
            index = draw(st.integers(0, len(tree) - 1))
            items = list(tree)
            items[index] = mutate(items[index], draw)
            return type(tree)(items)
        if action == "drop" and tree:
            return tree[:-1]
        if action == "retype":
            return list(tree) if type(tree) is tuple else tuple(tree)
        return type(tree)(list(tree) + [draw(leaves)])
    if type(tree) is dict and tree:
        key = draw(st.sampled_from(sorted(tree, key=repr)))
        return {**tree, key: mutate(tree[key], draw)}
    return draw(leaves)


@st.composite
def pairs(draw):
    """(APP payload, VAL payload): equal, one edit apart, or unrelated."""
    tree = draw(trees)
    how = draw(st.sampled_from(["same", "edited", "edited", "unrelated"]))
    other = tree if how == "same" else draw(trees) if how == "unrelated" else mutate(tree, draw)
    return render(tree, "app"), render(other, "val")


class TestAgainstTheCopyingComparison:
    @given(pairs())
    def test_generated_pairs(self, pair):
        a, b = pair
        assert payloads_match(a, b, canon_app, canon_val) == oracle_match(a, b, canon_app, canon_val)
        # values_equal is the same walker with pointers left alone
        assert values_equal(a, b) == oracle_values_equal(a, b) == payloads_match(a, b)

    @given(trees)
    def test_one_payload_seen_from_both_sides(self, tree):
        app, val = render(tree, "app"), render(tree, "val")
        # what a clean re-execution produces: never a false alarm
        assert payloads_match(app, val, canon_app, canon_val)
        # the canonicaliser that shares quiet tuples builds the same value
        # (repr tells a Pair from a tuple and nan from nan; == cannot)
        assert repr(canonicalize_ptrs(app, canon_app)) == repr(oracle_canon(app, canon_app))


def both(a, b, canon_a=canon_app, canon_b=canon_val):
    got = payloads_match(a, b, canon_a, canon_b)
    assert got == oracle_match(a, b, canon_a, canon_b)
    return got


class TestNamedEdges:
    """Each mutation of the walker the issue lists fails one of these by name."""

    def test_differing_types_go_to_the_general_case_not_to_false(self):
        # "differing types -> False" would get every one of these wrong
        assert both(ptr(5), ("ptr", 5))                    # pointer opposite its canon
        assert both(("ptr:new", 0), ptr(-1))
        assert both((ptr(100), 1), [("ptr:new", 0), 1]) is False
        assert both(Pair((1, 2)), (1, 2))                  # serialized alike
        assert both((Pair((1, 2)),), ((1, 2),))
        assert both(TaggedList([9]), ptr(5))               # marker wins in the canonicaliser
        assert both(Colour.RED, 1)                         # an IntEnum serializes as its int
        assert both(True, 1) is False
        assert both((True,), (1,)) is False
        assert both(1, 1.0) is False
        assert both((1, 2), [1, 2]) is False

    def test_floats_compare_by_their_bits_not_by_eq(self):
        # "== on floats" would get every one of these wrong
        for wrap in (lambda x: x, lambda x: (x,), lambda x: [0, [x]]):
            assert both(wrap(0.0), wrap(-0.0)) is False
            assert both(wrap(NAN), wrap(NAN_SAME_BITS)) is True
            assert both(wrap(NAN), wrap(NAN)) is True
            assert both(wrap(NAN), wrap(NAN_OTHER_BITS)) is False
            assert both(wrap(2.5), wrap(2.5)) is True

    def test_pointers_are_mapped_through_their_own_side(self):
        assert both(ptr(100), ptr(-1))            # both sides' first allocation
        assert both(ptr(101), ptr(-1)) is False   # second vs first
        assert both(ptr(7), ptr(7))               # pre-existing on both sides
        assert both(ptr(100), ptr(7)) is False    # new on one side, pre-existing on the other
        assert both(ptr(7), ptr(-8)) is False
        assert both(("node", (ptr(100), None, ptr(3))), ("node", (ptr(-1), None, ptr(3))))
        # without canons a pointer is its raw id, as values_equal always had it
        assert values_equal(ptr(7), ptr(7)) and not values_equal(ptr(100), ptr(-1))
        assert oracle_values_equal(ptr(7), ptr(7)) and not values_equal(ptr(7), ("ptr", 7))

    def test_unequal_lengths_at_every_depth(self):
        assert both((1, 2), (1, 2, 3)) is False
        assert both([[1, [2, 3]]], [[1, [2]]]) is False
        assert both([[1, [2, 3]], 4], [[1, [2, 3]]]) is False
        assert both(((), ()), ((),)) is False
        assert both([], []) and both((), ()) and both([[]], [[]])

    def test_ints_beyond_64_bits(self):
        assert both((1 << 70,), (1 << 70,))
        assert both((1 << 70,), ((1 << 70) + 1,)) is False
        assert both(-(1 << 200), -(1 << 200))

    def test_nested_lists_as_masstree_scans_return_them(self):
        scan = [["k1", "v1"], ["k2", "v2"], ["k3", ptr(100)]]
        assert both(scan, [["k1", "v1"], ["k2", "v2"], ["k3", ptr(-1)]])
        assert both(scan, [["k1", "v1"], ["k2", "vX"], ["k3", ptr(-1)]]) is False

    def test_dicts_bytes_and_user_data_take_the_general_case(self):
        assert both({1: "a", "1": [ptr(100)]}, {"1": [ptr(-1)], 1: "a"})
        assert both({1: "a"}, {1: "b"}) is False
        assert both((b"raw",), (b"raw",)) and both(b"raw", b"row") is False
        assert both(Account("ada", 1), Account("ada", 1))
        assert both([Account("ada", 1)], [Account("ada", 2)]) is False


class TestKeptOnPurpose:
    def test_lone_surrogate_leaves_compare_by_value_and_do_not_raise(self):
        bad = "\ud800"
        with pytest.raises(UnicodeEncodeError):
            oracle_match((bad,), (bad,), canon_app, canon_val)
        assert payloads_match((bad,), (bad,), canon_app, canon_val)
        assert payloads_match(bad, bad) and not payloads_match((bad, 1), ("\udfff", 1))
        # ... but a shape only the general case knows still serializes it
        with pytest.raises(UnicodeEncodeError):
            payloads_match({1: bad}, {1: bad}, canon_app, canon_val)

    def test_unserializable_payloads_fall_back_to_eq_over_the_whole_payload(self):
        thing = object()
        assert both(thing, thing) and both(thing, object()) is False
        assert both((1, thing), (1, thing)) and both([thing, ptr(100)], [thing, ptr(-1)])
        assert both((1, thing), (2, thing)) is False
        # == says nan != nan for two objects; the fallback is the old one
        assert both((NAN, thing), (NAN_SAME_BITS, thing)) is False

    def test_the_walk_is_stricter_than_the_old_fallback_never_laxer(self):
        thing = object()
        # the old path: TypeError, then (0.0, thing) == (-0.0, thing) is True
        assert oracle_match((0.0, thing), (-0.0, thing), canon_app, canon_val)
        assert payloads_match((0.0, thing), (-0.0, thing), canon_app, canon_val) is False
        assert oracle_match((True, thing), (1, thing), canon_app, canon_val)
        assert payloads_match((True, thing), (1, thing), canon_app, canon_val) is False


class TestCanonicalizePtrs:
    def test_a_pointer_free_tuple_is_returned_as_is(self):
        value = ("node", 7, 1020.0, (None, "k", (1, 2)))
        assert canonicalize_ptrs(value, canon_app) is value

    def test_lists_are_copied_at_every_depth(self):
        inner = [1, 2]
        value = ("scan", inner, ("deep", [inner]))
        out = canonicalize_ptrs(value, canon_app)
        assert out == value and out is not value
        assert out[1] is not inner and out[2][1] is not value[2][1] and out[2][1][0] is not inner

    def test_only_the_spine_above_a_pointer_is_rebuilt(self):
        quiet = ("no", "pointer", (1, 2))
        value = (quiet, (ptr(100), quiet), "tail", quiet)
        out = canonicalize_ptrs(value, canon_app)
        assert out == (quiet, (("ptr:new", 0), quiet), "tail", quiet)
        assert out[0] is quiet and out[1][1] is quiet and out[3] is quiet

    def test_tuple_subclasses_are_still_rebuilt_plain(self):
        out = canonicalize_ptrs(Pair((1, ptr(100))), canon_app)
        assert type(out) is tuple and out == (1, ("ptr:new", 0))
        assert type(canonicalize_ptrs(Pair((1, 2)), canon_app)) is tuple
