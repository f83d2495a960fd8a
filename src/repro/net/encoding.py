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

Encoders and decoders are straight-line code compiled once, at
registration, from fixed templates into two dispatch tables (``type →
encoder``, ``tag → decoder``); ``None``, ``int``, ``str`` and ``float``
items are coded inline. The field tuple is fixed at registration time,
which keeps server-side attachments (``QueryResult.stats``) off the wire.
Integers beyond 64 bits (RSA moduli) are length-prefixed. Immutable
metadata (:func:`memoize_structs`) is coded once per distinct value.
"""

from __future__ import annotations

import dataclasses
import enum
import struct
import textwrap
import threading
from operator import attrgetter
from typing import Any, Callable

from repro.errors import CorruptFrameError
from repro.net.opcodes import WIRE_IDS

__all__ = ["decode_value", "encode_value", "memoize_structs", "register_enum", "register_struct"]

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
    """``type → encode(value, out, depth)``; appends the value's bytes to bytearray ``out``."""

    def __missing__(self, cls: type):
        raise TypeError(f"type {cls.__name__!r} is not wire-encodable")


def _decode_unknown(data: bytes, pos: int, depth: int):
    raise CorruptFrameError(f"unknown value tag 0x{data[pos - 1]:02X}")


_ENCODERS = _Encoders()
#: ``tag → decode(data, pos, depth) -> (value, next_pos)``; ``pos`` is just past the tag.
_DECODERS: list[Callable[[bytes, int, int], tuple]] = [_decode_unknown] * 256


# ------------------------------------------------------------------ templates
# The only source this module compiles: one value ``{v}`` (a fixed local
# name) per expansion. Tags: 0x0B int64, 0x05 str, 0x00 None, 0x04 float.

_ENCODE_ONE = """\
kind = type({v})
if kind is int and -0x8000000000000000 <= {v} <= 0x7FFFFFFFFFFFFFFF:
    out += pack_i64(0x0B, {v})
elif kind is str:
    body = {v}.encode()
    out += pack_run(0x05, len(body))
    out += body
elif {v} is None:
    out += b"\\x00"
elif kind is float:
    out += pack_f64(0x04, {v})
else:
    encoders[kind]({v}, out, depth)
"""

_DECODE_ONE = """\
tag = data[pos]
if tag == 0x0B:
    {v} = unpack_i64(data, pos + 1)[0]
    pos += 9
elif tag == 0x05:
    end = pos + 5 + unpack_u32(data, pos + 1)[0]
    if end > len(data):
        raise CorruptFrameError("payload value truncated")
    {v} = data[pos + 5:end].decode()
    pos = end
elif tag == 0x00:
    {v} = None
    pos += 1
elif tag == 0x04:
    {v} = unpack_f64(data, pos + 1)[0]
    pos += 9
else:
    {v}, pos = decoders[tag](data, pos + 1, depth)
"""

_HEAD = "def codec({}):\n    if depth >= MAX_DEPTH:\n        raise {}(TOO_DEEP)\n    depth += 1\n"
_ENCODER = _HEAD.format("value, out, depth", "ValueError")
_DECODER = _HEAD.format("data, pos, depth", "CorruptFrameError")

_SCOPE = dict(
    MAX_DEPTH=_MAX_DEPTH, TOO_DEEP=_TOO_DEEP, CorruptFrameError=CorruptFrameError,
    encoders=_ENCODERS, decoders=_DECODERS, pack_run=_TAG_U32.pack, pack_i64=_TAG_I64.pack,
    pack_f64=_TAG_F64.pack, unpack_u32=_U32.unpack_from, unpack_i64=_I64.unpack_from,
    unpack_f64=_F64.unpack_from)


def _compile(head: str, body: list[str], **scope) -> Callable:
    """``codec`` from ``head`` and ``body``, lines at function level."""
    source = head + textwrap.indent("".join(body), "    ")
    namespace = {**_SCOPE, **scope}
    exec(compile(source, "<wire codec>", "exec"), namespace)  # fixed templates only
    return namespace["codec"]


def _item(template: str, v: str, indent: int = 0) -> str:
    return textwrap.indent(template.format(v=v), " " * indent)


# ------------------------------------------------------------------ built-ins


def _encode_run(tag: int, body: bytes, out: bytearray) -> None:
    out += _TAG_U32.pack(tag, len(body))
    out += body


def _encode_int(value: int, out: bytearray, depth: int) -> None:
    if -0x8000_0000_0000_0000 <= value <= 0x7FFF_FFFF_FFFF_FFFF:
        out += _TAG_I64.pack(_T_INT64, value)
    else:
        body = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
        _encode_run(_T_BIGINT, body, out)


def _sequence_encoder(tag: int, loop: str = "for item in value:", names=("item",)):
    """Encoder of a u32 ``len(value)`` and then the ``names`` of every ``loop`` pass."""
    items = (_item(_ENCODE_ONE, v, 4) for v in names)
    return _compile(_ENCODER, ["out += pack_run(tag, len(value))\n", f"{loop}\n", *items], tag=tag)


_ENCODERS.update({
    type(None): lambda value, out, depth: out.append(_T_NONE),
    bool: lambda value, out, depth: out.append(_T_TRUE if value else _T_FALSE),
    int: _encode_int,
    float: lambda value, out, depth: out.extend(_TAG_F64.pack(_T_FLOAT, value)),
    str: lambda value, out, depth: _encode_run(_T_STR, value.encode("utf-8"), out),
    bytes: lambda value, out, depth: _encode_run(_T_BYTES, value, out),
    bytearray: lambda value, out, depth: _encode_run(_T_BYTES, value, out),
    list: _sequence_encoder(_T_LIST),
    tuple: _sequence_encoder(_T_TUPLE),
    dict: _sequence_encoder(_T_DICT, "for key, item in value.items():", ("key", "item")),
    # Deterministic order so identical sets encode identically.
    frozenset: _sequence_encoder(_T_FROZENSET, "for item in sorted(value, key=repr):"),
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


def _sequence_decoder(result: str, keyed: bool = False):
    """Decoder of a u32 count and that many items (``keyed``: pairs) into
    ``items``, returning ``result``. A hostile count cannot allocate: every
    item consumes at least its tag byte, so the loop dies on the payload's end."""
    return _compile(_DECODER, [
        "count = unpack_u32(data, pos)[0]\n",
        "pos += 4\n",
        "items = {}\n" if keyed else "items = []\n",
        "for _ in range(count):\n",
        *(_item(_DECODE_ONE, v, 4) for v in (("key", "item") if keyed else ("item",))),
        "    items[key] = item\n" if keyed else "    items.append(item)\n",
        f"return {result}, pos\n",
    ])


_DECODERS[_T_NONE] = lambda data, pos, depth: (None, pos)
_DECODERS[_T_TRUE] = lambda data, pos, depth: (True, pos)
_DECODERS[_T_FALSE] = lambda data, pos, depth: (False, pos)
_DECODERS[_T_BIGINT] = _run_decoder(lambda body: int.from_bytes(body, "big", signed=True))
_DECODERS[_T_FLOAT] = lambda data, pos, depth: (_F64.unpack_from(data, pos)[0], pos + 8)
_DECODERS[_T_STR] = _run_decoder(bytes.decode)
_DECODERS[_T_BYTES] = _run_decoder(bytes)
_DECODERS[_T_LIST] = _sequence_decoder("items")
_DECODERS[_T_TUPLE] = _sequence_decoder("tuple(items)")
_DECODERS[_T_DICT] = _sequence_decoder("items", keyed=True)
_DECODERS[_T_FROZENSET] = _sequence_decoder("frozenset(items)")
_DECODERS[_T_INT64] = lambda data, pos, depth: (_I64.unpack_from(data, pos)[0], pos + 8)


# --------------------------------------------------------------- registration

#: exact field types of immutable metadata besides its shapes (and enums)
_IMMUTABLE_LEAVES: set[type] = {str, int, bool, type(None)}


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
    _ENCODERS[cls] = lambda value, out, depth: out.extend(wire[value])
    _DECODERS[tag] = lambda data, pos, depth: (members[data[pos]], pos + 1)
    _IMMUTABLE_LEAVES.add(cls)
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
    names = [f"v{index}" for index in range(len(fields))]
    unpack = [f"{', '.join(names)} = fields(value)\n"] if names else []
    encode = ["out.append(tag)\n", *unpack, *(_item(_ENCODE_ONE, v) for v in names)]
    getter = attrgetter(*fields) if fields else None
    _ENCODERS[cls] = _compile(_ENCODER, encode, tag=tag, fields=getter)
    _DECODERS[tag] = _compile(_DECODER, [
        *(_item(_DECODE_ONE, v) for v in names),
        "try:\n",
        f"    return cls({', '.join(names)}), pos\n",
        "except Exception as exc:  # whatever a constructor makes of hostile fields\n",
        "    raise CorruptFrameError(rejected + repr(exc)) from None\n",
    ], cls=cls, rejected=f"{cls.__name__} rejected wire fields: ")
    return cls


# ------------------------------------------------------- immutable metadata

#: memoized shape → its field values as a tuple
_IMMUTABLE: dict[type, Callable[[Any], tuple]] = {}
#: decode memo: tag + the first ``_PREFIX`` body bytes → [(span, value, need)]
_PREFIX, _PER_PREFIX, _PREFIXES = 8, 8, 512
#: encode memo: ``id(value)`` → (value, span, need); holds ``value`` alive
_ENTRIES = 4096
_decoded: dict[bytes, list[tuple[bytes, Any, int]]] = {}
_encoded: dict[int, tuple[Any, bytes, int]] = {}
_memo_lock = threading.Lock()


def memoize_structs(*classes: type) -> None:
    """Code registered frozen shapes ``classes`` once per distinct value: a
    value whose every field is a ``str``, ``int``, ``bool``, ``None``, enum
    member or such a value; hit only where a fresh code passes the depth limit."""
    for cls in classes:
        if not cls.__dataclass_params__.frozen:
            raise AssertionError(f"{cls.__name__} is mutable: it may not be memoized")
        names = tuple(f.name for f in dataclasses.fields(cls) if f.init)
        _IMMUTABLE[cls] = lambda value, names=names: tuple(getattr(value, n) for n in names)
        tag = WIRE_IDS[cls.__name__]
        _ENCODERS[cls], _DECODERS[tag] = _memoized(_ENCODERS[cls], _DECODERS[tag])


def _immutable_need(value: Any) -> int | None:
    """Nesting depth a fresh code of ``value`` checks; None if any part is mutable."""
    need = 1
    for item in _IMMUTABLE[type(value)](value):
        if type(item) not in _IMMUTABLE_LEAVES:
            inner = _immutable_need(item) if type(item) in _IMMUTABLE else None
            if inner is None:
                return None
            need = max(need, inner + 1)
    return need


def _memoized(encode: Callable, decode: Callable) -> tuple[Callable, Callable]:
    """A memoized shape's encoder and decoder: the memo, then its own."""

    def encode_once(value, out: bytearray, depth: int) -> None:
        entry = _encoded.get(id(value))
        if entry is not None and entry[0] is value and depth + entry[2] <= _MAX_DEPTH:
            out += entry[1]
            return
        start = len(out)
        encode(value, out, depth)
        need = _immutable_need(value)
        if need is not None:
            with _memo_lock:
                if len(_encoded) >= _ENTRIES:
                    _encoded.clear()
                _encoded[id(value)] = (value, bytes(out[start:]), need)

    def decode_once(data: bytes, pos: int, depth: int):
        start = pos - 1  # the tag byte
        for span, value, need in _decoded.get(data[start : pos + _PREFIX], ()):
            if data.startswith(span, start) and depth + need <= _MAX_DEPTH:
                return value, start + len(span)
        value, end = decode(data, pos, depth)
        need = _immutable_need(value)
        if need is not None:
            span = data[start:end]
            with _memo_lock:
                if span[: _PREFIX + 1] not in _decoded and len(_decoded) >= _PREFIXES:
                    _decoded.clear()
                bucket = _decoded.setdefault(span[: _PREFIX + 1], [])
                if len(bucket) < _PER_PREFIX:
                    bucket.append((span, value, need))
        return value, end

    return encode_once, decode_once


# ---------------------------------------------------------------- entry points


def encode_value(value: Any) -> bytes:
    """Serialize ``value`` to tagged bytes; raises ``TypeError`` on
    unregistered types and ``ValueError`` on excessive nesting."""
    out = bytearray()
    _ENCODERS[type(value)](value, out, 0)
    return bytes(out)


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
