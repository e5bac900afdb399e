"""CRC-16 checksums for control-path data-integrity verification.

Orthrus attaches a 16-bit cyclic redundancy check to every data-object
version (stored in the version header, §3.4).  The CRC is computed when a
version is created and verified the first time the object is loaded after
crossing the control/data-path boundary.  A 16-bit code suffices because it
is used purely for *detection* — never for recovery.

CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF, check value 0x29B1) is what
:func:`binascii.crc_hqx` computes when seeded with 0xFFFF, so the CRC runs
at C speed; a canonical serialization for the Python values user data can
hold makes logically equal payloads produce equal CRCs.

A CRC can only fail where a fault can have touched the bytes.  The
simulator corrupts a payload one way: a faulty control-path instruction
rewrites it in transit.  :func:`sealed` names the payloads that cannot
change after creation and that :func:`deserialize` returns type for type,
float bit for bit; a version of one whose bytes no fault rewrote is
*intact* (:class:`~repro.memory.version.Version`), and its first-load
probe passes without serializing it again.  Every other payload is
serialized and checksummed on every probe.  Nothing is remembered by
value.
"""

from __future__ import annotations

import struct
from binascii import crc_hqx


def crc16(data: bytes | bytearray) -> int:
    """CRC-16/CCITT-FALSE of ``data``."""
    return crc_hqx(data, 0xFFFF)


def serialize(value) -> bytes:
    """Canonical byte representation of a user-data payload.

    Handles the payload shapes the example applications use: ``None``,
    bool, int, float, str, bytes, and (possibly nested) tuples, lists and
    dicts of those.  Type tags keep distinct types from colliding (so the
    int ``1`` and the float ``1.0`` checksum differently).
    """
    out = bytearray()
    _serialize_items((value,), out)
    return bytes(out)


def _headers(tag: bytes) -> tuple[bytes, ...]:
    return tuple(tag + length.to_bytes(4, "little") for length in range(256))


#: tag + 4-byte length for every length below 256: constants built at
#: import, like the CRC table was — nothing a run computes is kept here
_TUPLE_HEADERS, _LIST_HEADERS, _INT_HEADERS, _STR_HEADERS = map(_headers, (b"T", b"L", b"I", b"S"))
_pack_double = struct.Struct("<d").pack


def _serialize_items(items, out: bytearray) -> None:
    """Append each of ``items``: the shapes payloads are made of, by exact type.

    Exact-type tests cost one pointer compare each and cannot mistake a
    ``bool`` or an ``IntEnum`` for an ``int``.  Leaves are written here, in
    their parent's loop, and only a tuple or list costs another call;
    anything else — subclasses included — is :func:`_serialize_general`'s,
    whose bytes for these shapes are the same.
    """
    for item in items:
        kind = type(item)
        if kind is int:
            size = (item.bit_length() + 8) // 8 + 1
            out += _INT_HEADERS[size] if size < 256 else b"I" + size.to_bytes(4, "little")
            out += item.to_bytes(size, "little", signed=True)
        elif kind is str:
            raw = item.encode("utf-8")
            size = len(raw)
            out += _STR_HEADERS[size] if size < 256 else b"S" + size.to_bytes(4, "little")
            out += raw
        elif item is None:
            out += b"N"
        elif kind is float:
            out += b"F"
            out += _pack_double(item)
        elif kind is tuple or kind is list:
            size = len(item)
            if size < 256:
                out += (_TUPLE_HEADERS if kind is tuple else _LIST_HEADERS)[size]
            else:
                out += b"T" if kind is tuple else b"L"
                out += size.to_bytes(4, "little")
            _serialize_items(item, out)
        elif kind.__base__ is object and getattr(kind, "__orthrus_ptr__", False):
            # OrthrusPtr, known by its class marker (importing it would be a
            # cycle).  A class whose base is ``object`` subclasses none of
            # the builtins the general chain tests first, so that chain
            # would end in its pointer branch too.
            out += b"P"
            out += item.obj_id.to_bytes(8, "little", signed=True)
        else:
            _serialize_general(item, out)


def _serialize_general(value, out: bytearray) -> None:
    if isinstance(value, bool):
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
        _serialize_items(value, out)
    elif isinstance(value, dict):
        out += b"D"
        out += len(value).to_bytes(4, "little")
        for key in sorted(value, key=repr):
            _serialize_items((key, value[key]), out)
    elif getattr(value, "__orthrus_ptr__", False):
        # An Orthrus pointer embedded in a payload (a versioned container
        # referencing another user-data object): serialized by object id.
        out += b"P"
        out += value.obj_id.to_bytes(8, "little", signed=True)
    elif hasattr(value, "__orthrus_payload__"):
        # User-data classes expose their payload for checksumming.
        out += b"O"
        _serialize_items((value.__orthrus_payload__(),), out)
    else:
        raise TypeError(
            f"cannot checksum value of type {type(value).__name__}; "
            "user-data payloads must be plain values or @user_data classes"
        )


def checksum_of(value) -> int:
    """CRC-16 of the canonical serialization of ``value``."""
    out = bytearray()
    _serialize_items((value,), out)
    return crc16(out)  # the bytearray itself: no bytes() copy


#: a value inside more containers than this is rejected, not recursed into
MAX_NESTING = 200
#: the longest int (bytes), str / bytes (bytes) and tuple / list / dict
#: (items) :func:`deserialize` accepts: a corrupted length field must not
#: trigger a giant allocation
MAX_INT_BYTES, MAX_RAW_BYTES, MAX_ITEMS = 1 << 20, 1 << 24, 1 << 20
#: an int encodes in ``(bit_length + 8) // 8 + 1`` bytes
_MAX_INT_BITS = 8 * MAX_INT_BYTES - 8


def sealed(value, pointers: bool = False) -> bool:
    """True when ``value`` is made only of exact ``tuple``, ``int``,
    ``str``, ``float``, ``bytes``, ``bool`` and ``None`` — plus
    ``OrthrusPtr`` when ``pointers`` is set — within the decoder's limits.

    No subclass is sealed (an ``IntEnum`` decodes as an ``int``), nor a
    ``list`` or ``dict`` (mutable: the bytes a CRC covered can change under
    it), nor a ``str`` UTF-8 cannot encode.  A sealed payload cannot change
    after creation, :func:`serialize` cannot refuse it, and without
    ``pointers`` (which travel by id and do not decode)
    ``deserialize(serialize(value))`` is ``value`` type for type, float
    bit for bit.

    The running code decides it inside a size walk — :func:`sealed_length`
    for a hop, ``repro.memory.version.footprint`` (with pointers) for the
    heap; this is the definition both are held to.
    """
    return _sealed(value, pointers, 0)


def _sealed(value, pointers: bool, depth: int) -> bool:
    """:func:`sealed`, one container level.  Leaves are tested in their
    tuple's loop (as in :func:`_serialize_items`); a nested tuple, a
    ``bytes`` or a shape that unseals costs another call."""
    kind = type(value)
    if kind is tuple:
        if depth >= MAX_NESTING or len(value) > MAX_ITEMS:
            return False
        for item in value:
            leaf = type(item)
            if leaf is str:
                if not (item.isascii() and len(item) <= MAX_RAW_BYTES or _encodes(item)):
                    return False
            elif leaf is int:
                if item.bit_length() >= _MAX_INT_BITS:
                    return False
            elif item is None or leaf is float or leaf is bool:
                continue
            elif leaf.__base__ is object and getattr(leaf, "__orthrus_ptr__", False):
                if not pointers:
                    return False
            elif not _sealed(item, pointers, depth + 1):
                return False
        return True
    if kind is str:
        return value.isascii() and len(value) <= MAX_RAW_BYTES or _encodes(value)
    if kind is int:
        return value.bit_length() < _MAX_INT_BITS
    if kind is bytes:
        return len(value) <= MAX_RAW_BYTES
    return (
        value is None or kind is float or kind is bool
        or pointers and kind.__base__ is object and getattr(kind, "__orthrus_ptr__", False)
    )


def _encodes(text: str) -> bool:
    """A non-ASCII ``str`` leaf: UTF-8 encodes it within the limit."""
    try:
        return len(text.encode("utf-8")) <= MAX_RAW_BYTES
    except UnicodeEncodeError:
        return False


def sealed_length(value) -> int | None:
    """``len(serialize(value))`` when ``value`` is :func:`sealed` (without
    pointers), else ``None``: one walk that sizes the bytes a payload would
    travel as without building them.  Every tag-and-length header is five
    bytes, whatever the length."""
    return _sealed_length(value, 0)


def _sealed_length(value, depth: int) -> int | None:
    """:func:`sealed_length`, one container level, shaped as :func:`_sealed`."""
    kind = type(value)
    if kind is tuple:
        if depth >= MAX_NESTING or len(value) > MAX_ITEMS:
            return None
        total = 5
        for item in value:
            leaf = type(item)
            if leaf is str:
                size = _utf8_length(item)
                if size is None:
                    return None
                total += 5 + size
            elif leaf is int:
                bits = item.bit_length()
                if bits >= _MAX_INT_BITS:
                    return None
                total += 6 + (bits + 8) // 8
            elif item is None:
                total += 1
            elif leaf is float:
                total += 9
            elif leaf is bool:
                total += 2
            else:
                size = _sealed_length(item, depth + 1)
                if size is None:
                    return None
                total += size
        return total
    if kind is str:
        size = _utf8_length(value)
        return None if size is None else 5 + size
    if kind is int:
        bits = value.bit_length()
        return 6 + (bits + 8) // 8 if bits < _MAX_INT_BITS else None
    if kind is bytes:
        return 5 + len(value) if len(value) <= MAX_RAW_BYTES else None
    if value is None:
        return 1
    if kind is float:
        return 9
    if kind is bool:
        return 2
    return None


def _utf8_length(text: str) -> int | None:
    """Bytes of a sealed ``str`` leaf's UTF-8 encoding, else ``None``."""
    if text.isascii():
        size = len(text)
    else:
        try:
            size = len(text.encode("utf-8"))
        except UnicodeEncodeError:
            return None
    return size if size <= MAX_RAW_BYTES else None


def deserialize(data: bytes):
    """Invert :func:`serialize`.

    Used by the control-path network model: payloads travel as canonical
    bytes, may be corrupted in transit by a faulty byte-move instruction,
    and are materialized back into values on the receiver.  Corrupted
    buffers either decode to a *wrong value* (a silent corruption the CRC
    catches at the data-path boundary) or raise ``ValueError`` (a fail-stop
    the classifier counts separately) — never anything else: a dict key
    that cannot be hashed and nesting beyond :data:`MAX_NESTING` levels
    are ``ValueError`` too.
    """
    value, offset = _deserialize_from(data, 0, 0)
    if offset != len(data):
        raise ValueError(f"{len(data) - offset} trailing bytes after payload")
    return value


def _take(data: bytes, offset: int, count: int) -> bytes:
    if offset + count > len(data):
        raise ValueError("truncated payload")
    return data[offset : offset + count]


def _deserialize_from(data: bytes, offset: int, depth: int):
    if depth > MAX_NESTING:
        raise ValueError(
            f"payload nested deeper than {MAX_NESTING} levels at offset {offset}"
        )
    tag = data[offset : offset + 1]  # a one-byte slice is a shared constant
    if not tag:
        raise ValueError("truncated payload")
    offset += 1
    if tag == b"N":
        return None, offset
    if tag == b"B":
        flag = _take(data, offset, 1)
        offset += 1
        if flag not in (b"0", b"1"):
            raise ValueError("bad bool flag")
        return flag == b"1", offset
    if tag == b"I":
        length = int.from_bytes(_take(data, offset, 4), "little")
        offset += 4
        if length > MAX_INT_BYTES:
            raise ValueError("absurd int length")
        raw = _take(data, offset, length)
        return int.from_bytes(raw, "little", signed=True), offset + length
    if tag == b"F":
        raw = _take(data, offset, 8)
        return struct.unpack("<d", raw)[0], offset + 8
    if tag in (b"S", b"Y"):
        length = int.from_bytes(_take(data, offset, 4), "little")
        offset += 4
        if length > MAX_RAW_BYTES:
            raise ValueError("absurd string length")
        raw = _take(data, offset, length)
        if tag == b"Y":
            return raw, offset + length
        return raw.decode("utf-8"), offset + length
    if tag in (b"T", b"L"):
        length = int.from_bytes(_take(data, offset, 4), "little")
        offset += 4
        if length > MAX_ITEMS:
            raise ValueError("absurd sequence length")
        items = []
        for _ in range(length):
            item, offset = _deserialize_from(data, offset, depth + 1)
            items.append(item)
        return (tuple(items) if tag == b"T" else items), offset
    if tag == b"D":
        length = int.from_bytes(_take(data, offset, 4), "little")
        offset += 4
        if length > MAX_ITEMS:
            raise ValueError("absurd dict length")
        out = {}
        for _ in range(length):
            key_offset = offset
            key, offset = _deserialize_from(data, offset, depth + 1)
            value, offset = _deserialize_from(data, offset, depth + 1)
            try:
                out[key] = value
            except TypeError:
                raise ValueError(
                    f"unhashable {type(key).__name__} dict key at offset {key_offset}"
                ) from None
        return out, offset
    raise ValueError(f"unknown payload tag {tag!r}")
