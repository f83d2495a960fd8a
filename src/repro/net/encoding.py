"""Schema-compiled binary codec for wire payloads (protocol v2).

Every value is one tag byte followed by a tag-specific body; containers
recurse. Tags below ``0x10`` are the built-in primitives and containers.
Every other tag is a *wire id* from :data:`repro.net.opcodes.WIRE_IDS`
naming one registered enum or dataclass ("struct"): an enum's body is one
byte, the member's index in definition order; a struct's body is its
field values in registered order — no class name, no field names, no
count. The codec is deliberately closed: a payload can never smuggle an
arbitrary object across the trust seam — decoding untrusted bytes
constructs only primitives, containers, and the registered message /
metadata shapes through their own constructors, and anything malformed
is a :class:`~repro.errors.CorruptFrameError`.

Encoders and decoders are built once, at registration, into two dispatch
tables: ``type → encoder`` and a 256-entry ``tag → decoder`` list. The
field tuple is fixed at registration time, which is what keeps volatile
server-side attachments (e.g. ``QueryResult.stats``) off the wire.
Integers that fit 64 bits are fixed-width; anything larger (RSA-sized
public-key moduli) is length-prefixed signed big-endian.
"""

from __future__ import annotations

import dataclasses
import enum
import struct
from itertools import chain
from operator import attrgetter
from typing import Any, Callable

from repro.errors import CorruptFrameError
from repro.net.opcodes import WIRE_IDS

__all__ = ["decode_value", "encode_value", "register_enum", "register_struct"]

_T_NONE, _T_TRUE, _T_FALSE = 0x00, 0x01, 0x02
_T_BIGINT, _T_FLOAT, _T_STR, _T_BYTES = 0x03, 0x04, 0x05, 0x06
_T_LIST, _T_TUPLE, _T_DICT, _T_FROZENSET = 0x07, 0x08, 0x09, 0x0A
_T_INT64 = 0x0B
#: first tag a registered enum or struct may own; below it are the built-ins
_FIRST_WIRE_ID = 0x10

_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_TAG_U32 = struct.Struct(">BI")
_TAG_I64 = struct.Struct(">Bq")
_TAG_F64 = struct.Struct(">Bd")

#: Containers and structs nested deeper than this are rejected, not recursed into.
_MAX_DEPTH = 32
_TOO_DEEP = "value nesting exceeds wire codec depth limit"


class _Encoders(dict):
    """``type → encode(value, append, depth)``; appends the value's bytes piecewise."""

    def __missing__(self, cls: type):
        raise TypeError(f"type {cls.__name__!r} is not wire-encodable")


def _decode_unknown(data: bytes, pos: int, depth: int):
    raise CorruptFrameError(f"unknown value tag 0x{data[pos - 1]:02X}")


_ENCODERS = _Encoders()
#: ``tag → decode(data, pos, depth) -> (value, next_pos)``; ``pos`` is just past the tag.
_DECODERS: list[Callable[[bytes, int, int], tuple]] = [_decode_unknown] * 256


# ------------------------------------------------------------------ built-ins


def _encode_run(tag: int, body: bytes, append) -> None:
    append(_TAG_U32.pack(tag, len(body)))
    append(body)


def _encode_int(value: int, append, depth: int) -> None:
    if -0x8000_0000_0000_0000 <= value <= 0x7FFF_FFFF_FFFF_FFFF:
        append(_TAG_I64.pack(_T_INT64, value))
    else:
        body = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
        _encode_run(_T_BIGINT, body, append)


def _sequence_encoder(tag: int, flatten: Callable = iter):
    """Encoder of a u32 ``len(value)`` and then every item ``flatten`` yields."""

    def encode(value, append, depth: int) -> None:
        if depth >= _MAX_DEPTH:
            raise ValueError(_TOO_DEEP)
        depth += 1
        append(_TAG_U32.pack(tag, len(value)))
        encoders = _ENCODERS
        for item in flatten(value):
            encoders[type(item)](item, append, depth)

    return encode


_ENCODERS.update({
    type(None): lambda value, append, depth: append(b"\x00"),
    bool: lambda value, append, depth: append(b"\x01" if value else b"\x02"),
    int: _encode_int,
    float: lambda value, append, depth: append(_TAG_F64.pack(_T_FLOAT, value)),
    str: lambda value, append, depth: _encode_run(_T_STR, value.encode("utf-8"), append),
    bytes: lambda value, append, depth: _encode_run(_T_BYTES, value, append),
    bytearray: lambda value, append, depth: _encode_run(_T_BYTES, bytes(value), append),
    list: _sequence_encoder(_T_LIST),
    tuple: _sequence_encoder(_T_TUPLE),
    dict: _sequence_encoder(_T_DICT, lambda value: chain.from_iterable(value.items())),
    # Deterministic order so identical sets encode identically.
    frozenset: _sequence_encoder(_T_FROZENSET, lambda value: sorted(value, key=repr)),
})


def _run_decoder(from_bytes: Callable[[bytes], Any]):
    """Decoder of a u32 byte count and that many bytes, handed to ``from_bytes``."""

    def decode(data: bytes, pos: int, depth: int):
        start = pos + 4
        end = start + _U32.unpack_from(data, pos)[0]
        if end > len(data):
            raise CorruptFrameError("payload value truncated")
        return from_bytes(data[start:end]), end

    return decode


def _sequence_decoder(build: Callable[[list], Any], width: int = 1):
    """Decoder of a u32 count and ``count * width`` items, handed to ``build``."""

    def decode(data: bytes, pos: int, depth: int):
        if depth >= _MAX_DEPTH:
            raise CorruptFrameError(_TOO_DEEP)
        depth += 1
        decoders = _DECODERS
        count = _U32.unpack_from(data, pos)[0] * width
        pos += 4
        items = []
        # A hostile count cannot allocate: every item consumes at least its
        # tag byte, so the loop dies on the payload's end, not on memory.
        for _ in range(count):
            item, pos = decoders[data[pos]](data, pos + 1, depth)
            items.append(item)
        return build(items), pos

    return decode


_DECODERS[_T_NONE] = lambda data, pos, depth: (None, pos)
_DECODERS[_T_TRUE] = lambda data, pos, depth: (True, pos)
_DECODERS[_T_FALSE] = lambda data, pos, depth: (False, pos)
_DECODERS[_T_BIGINT] = _run_decoder(lambda body: int.from_bytes(body, "big", signed=True))
_DECODERS[_T_FLOAT] = lambda data, pos, depth: (_F64.unpack_from(data, pos)[0], pos + 8)
_DECODERS[_T_STR] = _run_decoder(bytes.decode)
_DECODERS[_T_BYTES] = _run_decoder(bytes)
_DECODERS[_T_LIST] = _sequence_decoder(lambda items: items)
_DECODERS[_T_TUPLE] = _sequence_decoder(tuple)
_DECODERS[_T_DICT] = _sequence_decoder(lambda items: dict(zip(items[::2], items[1::2])), 2)
_DECODERS[_T_FROZENSET] = _sequence_decoder(frozenset)
_DECODERS[_T_INT64] = lambda data, pos, depth: (_I64.unpack_from(data, pos)[0], pos + 8)


# --------------------------------------------------------------- registration


def _wire_id(cls: type) -> int:
    """``cls``'s tag from the append-only table; a shape without one may not ride."""
    tag = WIRE_IDS[cls.__name__]
    if tag < _FIRST_WIRE_ID or _DECODERS[tag] is not _decode_unknown:
        raise AssertionError(f"wire id 0x{tag:02X} of {cls.__name__!r} is already taken")
    return tag


def register_enum(cls: type[enum.Enum]) -> type[enum.Enum]:
    """Allow ``cls`` members on the wire, addressed by wire id and member index."""
    tag = _wire_id(cls)
    members = tuple(cls)
    wire = {member: bytes((tag, index)) for index, member in enumerate(members)}
    _ENCODERS[cls] = lambda value, append, depth: append(wire[value])
    _DECODERS[tag] = lambda data, pos, depth: (members[data[pos]], pos + 1)
    return cls


def register_struct(cls: type, fields: tuple[str, ...] | None = None) -> type:
    """Allow dataclass ``cls`` on the wire.

    ``fields`` defaults to every dataclass field; pass a shorter leading
    run to keep server-only attachments out of the encoding. Decoding
    calls ``cls(*values)``, so every omitted field must have a default.
    """
    declared = tuple(f.name for f in dataclasses.fields(cls) if f.init)
    if fields is None:
        fields = declared
    if fields != declared[: len(fields)]:
        raise AssertionError(f"{cls.__name__}: wire fields must lead the dataclass's own")
    tag = _wire_id(cls)
    tag_byte = bytes((tag,))
    if len(fields) > 1:
        getter = attrgetter(*fields)
    else:  # attrgetter of one name is not a tuple, of none is an error
        getter = lambda value: tuple(getattr(value, name) for name in fields)  # noqa: E731

    def encode(value, append, depth: int) -> None:
        if depth >= _MAX_DEPTH:
            raise ValueError(_TOO_DEEP)
        depth += 1
        append(tag_byte)
        encoders = _ENCODERS
        for item in getter(value):
            encoders[type(item)](item, append, depth)

    def decode(data: bytes, pos: int, depth: int):
        if depth >= _MAX_DEPTH:
            raise CorruptFrameError(_TOO_DEEP)
        depth += 1
        decoders = _DECODERS
        values = []
        for _ in fields:
            value, pos = decoders[data[pos]](data, pos + 1, depth)
            values.append(value)
        try:
            return cls(*values), pos
        except Exception as exc:  # whatever a constructor makes of hostile fields
            raise CorruptFrameError(f"{cls.__name__} rejected wire fields: {exc!r}") from None

    _ENCODERS[cls], _DECODERS[tag] = encode, decode
    return cls


# ---------------------------------------------------------------- entry points


def encode_value(value: Any) -> bytes:
    """Serialize ``value`` to tagged bytes; raises ``TypeError`` on
    unregistered types and ``ValueError`` on excessive nesting."""
    out: list[bytes] = []
    _ENCODERS[type(value)](value, out.append, 0)
    return b"".join(out)


def decode_value(data: bytes) -> Any:
    """Deserialize one tagged value occupying all of ``data``; bytes that
    are not exactly that raise :class:`CorruptFrameError` and nothing else."""
    try:
        value, pos = _DECODERS[data[0]](data, 1, 0)
    except (IndexError, struct.error, UnicodeDecodeError, TypeError) as exc:
        # ran off the payload's end, bad UTF-8, or an unhashable key / set member
        raise CorruptFrameError(f"malformed payload value: {exc}") from None
    if pos != len(data):
        raise CorruptFrameError(f"{len(data) - pos} trailing bytes after payload value")
    return value
