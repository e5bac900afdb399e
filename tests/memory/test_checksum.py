"""CRC-16 and canonical serialization tests."""

import dataclasses
import enum
import struct
import sys

import pytest
from hypothesis import given, strategies as st

from repro.closures.annotation import user_data
from repro.memory.checksum import MAX_NESTING, checksum_of, crc16, deserialize, serialize
from repro.memory.heap import VersionedHeap
from repro.memory.pointer import OrthrusPtr
from repro.memory.version import approx_size


class TestCrc16:
    def test_known_vector(self):
        # CRC-16/CCITT-FALSE("123456789") is the standard check value.
        assert crc16(b"123456789") == 0x29B1

    def test_empty_input(self):
        assert crc16(b"") == 0xFFFF

    def test_single_bit_sensitivity(self):
        base = crc16(b"hello world")
        flipped = crc16(b"hello worle")
        assert base != flipped

    def test_range(self):
        assert 0 <= crc16(b"anything") <= 0xFFFF


class TestSerialize:
    def test_type_tags_disambiguate(self):
        assert serialize(1) != serialize(1.0)
        assert serialize(True) != serialize(1)
        assert serialize("1") != serialize(b"1")
        assert serialize((1,)) != serialize([1])

    def test_none(self):
        assert serialize(None) == b"N"

    def test_nested_structures(self):
        value = {"k": [1, (2.5, "x")], "j": None}
        assert serialize(value) == serialize({"j": None, "k": [1, (2.5, "x")]})

    def test_float_bit_exactness(self):
        assert serialize(0.0) != serialize(-0.0)
        assert serialize(float("nan")) == serialize(float("nan"))

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            serialize(object())

    def test_user_data_payload_hook(self):
        class Widget:
            def __orthrus_payload__(self):
                return ("widget", 7)

        assert serialize(Widget()) == b"O" + serialize(("widget", 7))


class TestChecksumOf:
    def test_equal_values_equal_checksums(self):
        assert checksum_of([1, "two", 3.0]) == checksum_of([1, "two", 3.0])

    def test_different_values_usually_differ(self):
        assert checksum_of("payload-a") != checksum_of("payload-b")


@given(st.binary(max_size=256))
def test_crc_deterministic(data):
    assert crc16(data) == crc16(data)


@given(st.binary(min_size=1, max_size=64), st.integers(min_value=0, max_value=7))
def test_crc_detects_single_bit_flips(data, bit):
    corrupted = bytearray(data)
    corrupted[0] ^= 1 << bit
    assert crc16(bytes(corrupted)) != crc16(data)


payloads = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=20)
    | st.binary(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.tuples(children, children)
    | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=10,
)


@given(payloads)
def test_serialize_total_and_deterministic(value):
    assert serialize(value) == serialize(value)


@given(payloads, payloads)
def test_serialize_injective_on_samples(a, b):
    if a != b:
        assert serialize(a) != serialize(b)


# ----------------------------------------------------------------------
# Differential tests: the table-driven CRC loop and the isinstance-chain
# serializer that ``repro.memory.checksum`` used to contain live on here,
# verbatim, as the oracles the C-speed / exact-type versions must equal.
# ----------------------------------------------------------------------
def _oracle_table() -> list[int]:
    table = []
    for byte in range(256):
        crc = byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ 0x1021) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
        table.append(crc)
    return table


_ORACLE_TABLE = _oracle_table()


def oracle_crc16(data: bytes) -> int:
    crc = 0xFFFF
    for byte in data:
        crc = ((crc << 8) & 0xFFFF) ^ _ORACLE_TABLE[((crc >> 8) ^ byte) & 0xFF]
    return crc


def _oracle_into(value, out: bytearray) -> None:
    if value is None:
        out += b"N"
    elif isinstance(value, bool):
        out += b"B1" if value else b"B0"
    elif isinstance(value, int):
        out += b"I"
        raw = value.to_bytes((value.bit_length() + 8) // 8 + 1, "little", signed=True)
        out += len(raw).to_bytes(4, "little")
        out += raw
    elif isinstance(value, float):
        out += b"F"
        out += struct.pack("<d", value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += b"S"
        out += len(raw).to_bytes(4, "little")
        out += raw
    elif isinstance(value, bytes):
        out += b"Y"
        out += len(value).to_bytes(4, "little")
        out += value
    elif isinstance(value, (tuple, list)):
        out += b"T" if isinstance(value, tuple) else b"L"
        out += len(value).to_bytes(4, "little")
        for item in value:
            _oracle_into(item, out)
    elif isinstance(value, dict):
        out += b"D"
        out += len(value).to_bytes(4, "little")
        for key in sorted(value, key=repr):
            _oracle_into(key, out)
            _oracle_into(value[key], out)
    elif getattr(value, "__orthrus_ptr__", False):
        out += b"P"
        out += value.obj_id.to_bytes(8, "little", signed=True)
    elif hasattr(value, "__orthrus_payload__"):
        out += b"O"
        _oracle_into(value.__orthrus_payload__(), out)
    else:
        raise TypeError(f"cannot checksum value of type {type(value).__name__}")


def oracle_serialize(value) -> bytes:
    out = bytearray()
    _oracle_into(value, out)
    return bytes(out)


class Colour(enum.IntEnum):
    RED = 1
    WIDE = 1 << 70


class Label(str):
    """A str subclass: must serialize as its characters, like the oracle."""


class Metres(float):
    pass


class Pair(tuple):
    pass


class TaggedList(list):
    #: carries the pointer marker *and* subclasses a builtin the chain tests
    #: first: the oracle serializes it as a list, so must the fast path
    __orthrus_ptr__ = True
    obj_id = 9


@user_data
@dataclasses.dataclass
class Account:
    owner: str
    balance: int


_HEAP = VersionedHeap()

plain_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=1 << 64)
    | st.integers(max_value=-(1 << 64))
    | st.floats(allow_nan=False)
    | st.text(max_size=12)
    | st.binary(max_size=12)
)
exotic_leaves = (
    st.sampled_from(list(Colour))
    | st.text(max_size=5).map(Label)
    | st.floats(allow_nan=False).map(Metres)
    | st.integers(min_value=0, max_value=1 << 40).map(lambda i: OrthrusPtr(_HEAP, i))
    | st.builds(Account, st.text(max_size=5), st.integers())
    | st.just(float("nan"))
)
dict_keys = (
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-2, 2) | st.text(max_size=3)
)


def nest(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.lists(children, max_size=3).map(Pair)
        | st.dictionaries(dict_keys, children, max_size=4)
    )


plain_payloads = st.recursive(plain_leaves, nest, max_leaves=12)
all_payloads = st.recursive(plain_leaves | exotic_leaves, nest, max_leaves=12)


class TestCrcAgainstOracle:
    def test_check_value_and_empty(self):
        assert crc16(b"123456789") == oracle_crc16(b"123456789") == 0x29B1
        assert crc16(b"") == oracle_crc16(b"") == 0xFFFF

    @given(st.binary(max_size=600))
    def test_equals_table_driven_loop(self, data):
        assert crc16(data) == oracle_crc16(data)

    @given(all_payloads)
    def test_checksum_of_is_crc_of_serialization(self, value):
        # checksum_of skips the bytes() copy; it may not skip anything else
        assert checksum_of(value) == oracle_crc16(oracle_serialize(value))


class TestSerializeAgainstOracle:
    @given(all_payloads)
    def test_generated_payloads(self, value):
        assert serialize(value) == oracle_serialize(value)

    @pytest.mark.parametrize(
        "value",
        [
            True, 1, 1.0, False, 0, 0.0, -0.0,
            (True, 1, 1.0),
            Colour.RED, Colour.WIDE, (Colour.RED, 1),
            -1, -(1 << 64), (1 << 64) - 1, 1 << 64, 1 << 200, -(1 << 200),
            tuple(range(256)), list(range(300)), tuple([None] * 257),
            Pair((1, 2)), Label("x"), Metres(2.5), TaggedList([1, 2]),
            {1: "a", "1": "b", None: 0, 2.5: (), True: [True]},
            {(1, "k"): {"inner": b"\x00\xff"}},
            ("node", 7, "v", 1020.0, (OrthrusPtr(_HEAP, 3), None, OrthrusPtr(_HEAP, -1))),
            Account("ada", 10), [Account("bob", -5), (Account("eve", 1 << 80),)],
            "", b"", (), [], {},
        ],
        ids=repr,
    )
    def test_traps(self, value):
        assert serialize(value) == oracle_serialize(value)

    @pytest.mark.parametrize("value", [object(), {1, 2}, (1, object()), [complex(1, 2)]], ids=repr)
    def test_unsupported_type_raises_like_the_oracle(self, value):
        with pytest.raises(TypeError, match="cannot checksum value of type"):
            oracle_serialize(value)
        with pytest.raises(TypeError, match="cannot checksum value of type"):
            serialize(value)

    @given(plain_payloads)
    def test_deserialize_round_trips(self, value):
        assert deserialize(serialize(value)) == value


# ----------------------------------------------------------------------
# The leaf-inlining walkers against the functions they replaced.  The
# serializer's oracle is ``oracle_serialize`` above; ``approx_size`` and
# the ``_take()``-per-byte decoder live on here verbatim.
# ----------------------------------------------------------------------
def oracle_approx_size(value) -> int:
    if value is None or isinstance(value, bool):
        return 8
    if isinstance(value, int):
        return 8 + value.bit_length() // 8
    if isinstance(value, float):
        return 8
    if isinstance(value, (str, bytes)):
        return 16 + len(value)
    if getattr(value, "__orthrus_ptr__", False):
        return 8  # one pointer word
    if isinstance(value, (tuple, list)):
        return 16 + sum(oracle_approx_size(item) for item in value)
    if isinstance(value, dict):
        return 32 + sum(
            oracle_approx_size(k) + oracle_approx_size(v) for k, v in value.items()
        )
    if hasattr(value, "__orthrus_payload__"):
        return 16 + oracle_approx_size(value.__orthrus_payload__())
    return sys.getsizeof(value)


def _oracle_take(data: bytes, offset: int, count: int) -> bytes:
    if offset + count > len(data):
        raise ValueError("truncated payload")
    return data[offset : offset + count]


def _oracle_deserialize_from(data: bytes, offset: int):
    tag = _oracle_take(data, offset, 1)
    offset += 1
    if tag == b"N":
        return None, offset
    if tag == b"B":
        flag = _oracle_take(data, offset, 1)
        offset += 1
        if flag not in (b"0", b"1"):
            raise ValueError("bad bool flag")
        return flag == b"1", offset
    if tag == b"I":
        length = int.from_bytes(_oracle_take(data, offset, 4), "little")
        offset += 4
        if length > 1 << 20:
            raise ValueError("absurd int length")
        raw = _oracle_take(data, offset, length)
        return int.from_bytes(raw, "little", signed=True), offset + length
    if tag == b"F":
        raw = _oracle_take(data, offset, 8)
        return struct.unpack("<d", raw)[0], offset + 8
    if tag in (b"S", b"Y"):
        length = int.from_bytes(_oracle_take(data, offset, 4), "little")
        offset += 4
        if length > 1 << 24:
            raise ValueError("absurd string length")
        raw = _oracle_take(data, offset, length)
        if tag == b"Y":
            return raw, offset + length
        return raw.decode("utf-8"), offset + length
    if tag in (b"T", b"L"):
        length = int.from_bytes(_oracle_take(data, offset, 4), "little")
        offset += 4
        if length > 1 << 20:
            raise ValueError("absurd sequence length")
        items = []
        for _ in range(length):
            item, offset = _oracle_deserialize_from(data, offset)
            items.append(item)
        return (tuple(items) if tag == b"T" else items), offset
    if tag == b"D":
        length = int.from_bytes(_oracle_take(data, offset, 4), "little")
        offset += 4
        if length > 1 << 20:
            raise ValueError("absurd dict length")
        out = {}
        for _ in range(length):
            key, offset = _oracle_deserialize_from(data, offset)
            value, offset = _oracle_deserialize_from(data, offset)
            out[key] = value
        return out, offset
    raise ValueError(f"unknown payload tag {tag!r}")


def oracle_deserialize(data: bytes):
    value, offset = _oracle_deserialize_from(data, 0)
    if offset != len(data):
        raise ValueError(f"{len(data) - offset} trailing bytes after payload")
    return value


def same_value(a, b) -> bool:
    """``==`` that equates two NaNs and tells 1 from True and 0.0 from -0.0."""
    return oracle_serialize(a) == oracle_serialize(b)


def _decodes(value) -> bool:
    """Tags ``P`` and ``O`` are written but, as before, not read back."""
    if isinstance(value, (tuple, list)):
        return all(map(_decodes, value))
    if isinstance(value, dict):
        return all(_decodes(key) and _decodes(item) for key, item in value.items())
    return not isinstance(value, (OrthrusPtr, Account))


def _outcome(decode, data):
    """What a decoder did: its value, or the ValueError it failed closed with."""
    try:
        return "value", decode(data)
    except ValueError as exc:
        return "ValueError", str(exc)


#: lengths on both sides of the header tables' edge (256 entries, 0..255)
_EDGES = (0, 1, 254, 255, 256, 257, 300)
#: an int's serialized size is (bit_length + 8) // 8 + 1 bytes
_INT_EDGES = [sign * (1 << (8 * (size - 2))) for size in (254, 255, 256, 257) for sign in (1, -1)]
_TABLE_BOUNDARIES = (
    [tuple([None] * n) for n in _EDGES]
    + [[7] * n for n in _EDGES]
    + [("x" * n,) for n in _EDGES]
    + [["é" * n] for n in (127, 128, 129)]      # 254 / 256 / 258 encoded bytes
    + [("€" * 85, "€" * 86)]                    # 255 and 258 encoded bytes
    + [(value,) for value in _INT_EDGES]
    + [[value, -value] for value in _INT_EDGES]
)


class TestWalkersAgainstTheFunctionsTheyReplace:
    @pytest.mark.parametrize("value", _TABLE_BOUNDARIES, ids=lambda v: f"{type(v).__name__}-{len(repr(v))}")
    def test_both_sides_of_every_header_table_boundary(self, value):
        assert serialize(value) == oracle_serialize(value)
        assert checksum_of(value) == oracle_crc16(oracle_serialize(value))
        assert approx_size(value) == oracle_approx_size(value)
        assert same_value(deserialize(serialize(value)), value)

    def test_the_int_edges_straddle_the_table(self):
        sizes = {(value.bit_length() + 8) // 8 + 1 for value in _INT_EDGES}
        assert {255, 256} <= sizes and min(sizes) < 255 and max(sizes) > 256

    @pytest.mark.parametrize(
        "value",
        [
            True, 1, 1.0, None, "", b"", (), [], {}, Colour.RED, (Colour.WIDE, True, 1 << 70),
            Pair((1, "a")), Label("xyz"), Metres(1.5), TaggedList([1, 2, 3]), (TaggedList([1]),),
            ("node", 7, "v", 1020.0, (OrthrusPtr(_HEAP, 3), None, [OrthrusPtr(_HEAP, -1), "k"])),
            [Account("bob", -5), (Account("eve", 1 << 80),)], {1: ("a", [2.5]), "k": None},
            (b"bytes", bytearray(b"ba"), {1, 2}, object),
        ],
        ids=repr,
    )
    def test_approx_size_traps(self, value):
        assert approx_size(value) == oracle_approx_size(value)

    @given(all_payloads)
    def test_generated_payloads(self, value):
        assert approx_size(value) == oracle_approx_size(value)
        if not _decodes(value):
            return
        data = serialize(value)
        assert same_value(deserialize(data), oracle_deserialize(data))
        assert same_value(deserialize(data), value)

    @given(st.binary(max_size=200))
    def test_arbitrary_bytes_decode_as_before_or_fail_closed(self, data):
        # a value or a ValueError (anything else propagates out of
        # _outcome), and the same one wherever the old decoder produced
        # either — its other exceptions are what TestDeserializeFailsClosed
        # is about
        got = _outcome(deserialize, data)
        try:
            expected = _outcome(oracle_deserialize, data)
        except (TypeError, RecursionError):
            return
        assert got[0] == expected[0]
        if got[0] == "ValueError":
            assert got[1] == expected[1]
        else:
            assert same_value(got[1], expected[1])


class TestDeserializeFailsClosed:
    """``ValueError`` or a value — never a traceback of another kind.

    The decoder's only input is bytes a faulty ``copy`` may have corrupted
    (``transfer`` → ``unwrap``), so every one of these is reachable.
    """

    def test_unhashable_list_key_names_its_offset(self):
        data = b"D" + (1).to_bytes(4, "little") + b"L" + bytes(4) + b"N"
        with pytest.raises(ValueError, match=r"unhashable list dict key at offset 5"):
            deserialize(data)

    def test_unhashable_dict_key(self):
        data = b"D" + (1).to_bytes(4, "little") + b"D" + bytes(4) + b"N"
        with pytest.raises(ValueError, match=r"unhashable dict dict key at offset 5"):
            deserialize(data)

    def test_tuple_key_holding_a_list_is_unhashable_too(self):
        key = b"T" + (1).to_bytes(4, "little") + b"L" + bytes(4)
        with pytest.raises(ValueError, match="unhashable tuple dict key at offset 5"):
            deserialize(b"D" + (1).to_bytes(4, "little") + key + b"N")

    @pytest.mark.parametrize("tag", [b"T", b"L"])
    def test_deep_nesting_is_a_value_error_that_names_the_offset(self, tag):
        header = tag + (1).to_bytes(4, "little")
        with pytest.raises(ValueError, match=rf"deeper than {MAX_NESTING} levels at offset {5 * (MAX_NESTING + 1)}"):
            deserialize(header * 5000)

    def test_nesting_up_to_the_stated_depth_round_trips(self):
        value = None
        for _ in range(MAX_NESTING):
            value = (value,)
        assert deserialize(serialize(value)) == value
        with pytest.raises(ValueError, match="deeper than"):
            deserialize(serialize((value,)))

    def test_pointer_tag_stays_rejected(self):
        with pytest.raises(ValueError, match="unknown payload tag b'P'"):
            deserialize(serialize(OrthrusPtr(_HEAP, 3)))

    @given(plain_payloads, st.data())
    def test_single_bit_and_single_byte_mutations(self, value, data):
        good = serialize(value)
        index = data.draw(st.integers(0, len(good) - 1))
        flipped = bytearray(good)
        flipped[index] ^= 1 << data.draw(st.integers(0, 7))
        _outcome(deserialize, bytes(flipped))
        replaced = bytearray(good)
        replaced[index] = data.draw(st.integers(0, 255))
        _outcome(deserialize, bytes(replaced))

    @given(st.lists(st.sampled_from([b"D", b"T", b"L", b"N", b"B1", b"I", b"S", b"Y", b"F",
                                     (1).to_bytes(4, "little"), bytes(4), bytes(8)]),
                    max_size=40))
    def test_tag_soup(self, pieces):
        # random bytes seldom nest; sequences of real tags and lengths do
        _outcome(deserialize, b"".join(pieces))
