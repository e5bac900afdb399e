"""CRC-16 checksums for control-path data-integrity verification.

Orthrus attaches a 16-bit cyclic redundancy check to every data-object
version (stored in the version header, §3.4).  The CRC is computed when a
version is created and verified the first time the object is loaded after
crossing the control/data-path boundary.  A 16-bit code suffices because it
is used purely for *detection* — never for recovery.

CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF, check value 0x29B1) is what
:func:`binascii.crc_hqx` computes when seeded with 0xFFFF, so the CRC runs
at C speed; a canonical serialization for the Python values user data can
hold makes logically equal payloads produce equal CRCs.  Nothing here
remembers a result: every verification serializes and checksums the
payload again, because a remembered CRC would vouch for bytes nobody
re-read.
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
    _serialize_into(value, out)
    return bytes(out)


def _serialize_into(value, out: bytearray) -> None:
    """Append ``value``: the shapes payloads are made of, by exact type.

    Exact-type tests cost one pointer compare each and cannot mistake a
    ``bool`` or an ``IntEnum`` for an ``int``; anything else — subclasses
    included — is :func:`_serialize_general`'s, whose bytes for these
    shapes are the same.
    """
    kind = type(value)
    if kind is tuple:
        out += b"T"
        out += len(value).to_bytes(4, "little")
        for item in value:
            _serialize_into(item, out)
    elif kind is int:
        out += b"I"
        raw = value.to_bytes((value.bit_length() + 8) // 8 + 1, "little", signed=True)
        out += len(raw).to_bytes(4, "little")
        out += raw
    elif value is None:
        out += b"N"
    elif kind is str:
        raw = value.encode("utf-8")
        out += b"S"
        out += len(raw).to_bytes(4, "little")
        out += raw
    elif kind is float:
        out += b"F"
        out += struct.pack("<d", value)
    elif kind.__base__ is object and getattr(kind, "__orthrus_ptr__", False):
        # OrthrusPtr, known by its class marker (importing it would be a
        # cycle).  A class whose base is ``object`` subclasses none of the
        # builtins the general chain tests first, so that chain would end
        # in its pointer branch too.
        out += b"P"
        out += value.obj_id.to_bytes(8, "little", signed=True)
    else:
        _serialize_general(value, out)


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
        for item in value:
            _serialize_into(item, out)
    elif isinstance(value, dict):
        out += b"D"
        out += len(value).to_bytes(4, "little")
        for key in sorted(value, key=repr):
            _serialize_into(key, out)
            _serialize_into(value[key], out)
    elif getattr(value, "__orthrus_ptr__", False):
        # An Orthrus pointer embedded in a payload (a versioned container
        # referencing another user-data object): serialized by object id.
        out += b"P"
        out += value.obj_id.to_bytes(8, "little", signed=True)
    elif hasattr(value, "__orthrus_payload__"):
        # User-data classes expose their payload for checksumming.
        out += b"O"
        _serialize_into(value.__orthrus_payload__(), out)
    else:
        raise TypeError(
            f"cannot checksum value of type {type(value).__name__}; "
            "user-data payloads must be plain values or @user_data classes"
        )


def checksum_of(value) -> int:
    """CRC-16 of the canonical serialization of ``value``."""
    out = bytearray()
    _serialize_into(value, out)
    return crc16(out)  # the bytearray itself: no bytes() copy


def deserialize(data: bytes):
    """Invert :func:`serialize`.

    Used by the control-path network model: payloads travel as canonical
    bytes, may be corrupted in transit by a faulty byte-move instruction,
    and are materialized back into values on the receiver.  Corrupted
    buffers either decode to a *wrong value* (a silent corruption the CRC
    catches at the data-path boundary) or raise ``ValueError`` (a fail-stop
    the classifier counts separately).
    """
    value, offset = _deserialize_from(data, 0)
    if offset != len(data):
        raise ValueError(f"{len(data) - offset} trailing bytes after payload")
    return value


def _take(data: bytes, offset: int, count: int) -> bytes:
    if offset + count > len(data):
        raise ValueError("truncated payload")
    return data[offset : offset + count]


def _deserialize_from(data: bytes, offset: int):
    tag = _take(data, offset, 1)
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
        if length > 1 << 20:
            raise ValueError("absurd int length")
        raw = _take(data, offset, length)
        return int.from_bytes(raw, "little", signed=True), offset + length
    if tag == b"F":
        raw = _take(data, offset, 8)
        return struct.unpack("<d", raw)[0], offset + 8
    if tag in (b"S", b"Y"):
        length = int.from_bytes(_take(data, offset, 4), "little")
        offset += 4
        if length > 1 << 24:
            raise ValueError("absurd string length")
        raw = _take(data, offset, length)
        if tag == b"Y":
            return raw, offset + length
        return raw.decode("utf-8"), offset + length
    if tag in (b"T", b"L"):
        length = int.from_bytes(_take(data, offset, 4), "little")
        offset += 4
        if length > 1 << 20:
            raise ValueError("absurd sequence length")
        items = []
        for _ in range(length):
            item, offset = _deserialize_from(data, offset)
            items.append(item)
        return (tuple(items) if tag == b"T" else items), offset
    if tag == b"D":
        length = int.from_bytes(_take(data, offset, 4), "little")
        offset += 4
        if length > 1 << 20:
            raise ValueError("absurd dict length")
        out = {}
        for _ in range(length):
            key, offset = _deserialize_from(data, offset)
            value, offset = _deserialize_from(data, offset)
            out[key] = value
        return out, offset
    raise ValueError(f"unknown payload tag {tag!r}")
