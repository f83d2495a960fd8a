"""The compiled codec against a reference written from docs/WIRE.md.

``repro.net.encoding`` compiles a straight-line encoder and decoder per
shape and codes immutable metadata once per distinct value. This file
holds both to a plain recursive codec written from the value table in
docs/WIRE.md, and to the rules the memos must keep:

* every registered shape and message encodes to the reference's bytes
  and decodes to an equal value, with the memos cold and warm;
* hostile payloads still raise :class:`CorruptFrameError` and nothing
  else once the memos hold real metadata;
* a memo hit is exact: spans sharing a prefix stay apart, a hit nested at
  the depth limit fails as a fresh decode or encode does, both memos stay
  within their bounds, mutable metadata (``CekMetadata``) is never
  remembered, and threads decoding while the memos churn see only
  correct values.
"""

from __future__ import annotations

import dataclasses
import enum
import struct
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aead import EncryptionScheme
from repro.errors import CorruptFrameError
from repro.keys.cek import CekEncryptedValue
from repro.net import encoding
from repro.net import messages as msg
from repro.net.encoding import decode_value, encode_value
from repro.net.opcodes import WIRE_IDS
from repro.sqlengine.cells import Ciphertext
from repro.sqlengine.exec.executor import QueryResult, ResultColumn
from repro.sqlengine.server import CekMetadata, ParameterDescription
from repro.sqlengine.types import ColumnType, EncryptionInfo, SqlType
from tests.net.test_frames import PAYLOADS, hostile_payloads, values
from tests.net.test_messages import CEK_METADATA, DESCRIBE_REPLY, EXECUTE_REPLY, SAMPLES

# ------------------------------------------------------- reference codec
# docs/WIRE.md, "Value layout": a tag byte, then its body; a run is a u32
# byte count and the bytes, a count a u32; ids >= 0x10 from WIRE_IDS.

SHAPES = {tag: getattr(msg, name) for name, tag in WIRE_IDS.items()}


def fields_of(cls):
    """A struct's wire fields: its constructor's (``QueryResult.stats`` is not one)."""
    return tuple(f.name for f in dataclasses.fields(cls) if f.init)


def ref_encode(value) -> bytes:
    run = lambda tag, body: bytes([tag]) + struct.pack(">I", len(body)) + body  # noqa: E731
    count = lambda tag, n: bytes([tag]) + struct.pack(">I", n)  # noqa: E731
    if value is None or value is True or value is False:
        return {None: b"\x00", True: b"\x01", False: b"\x02"}[value]
    if type(value) is int:
        if -(2**63) <= value < 2**63:
            return b"\x0b" + struct.pack(">q", value)
        return run(0x03, value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True))
    if type(value) is float:
        return b"\x04" + struct.pack(">d", value)
    if type(value) is str:
        return run(0x05, value.encode("utf-8"))
    if type(value) in (bytes, bytearray):
        return run(0x06, bytes(value))
    if type(value) in (list, tuple):
        tag = 0x07 if type(value) is list else 0x08
        return count(tag, len(value)) + b"".join(map(ref_encode, value))
    if type(value) is dict:
        pairs = (ref_encode(k) + ref_encode(v) for k, v in value.items())
        return count(0x09, len(value)) + b"".join(pairs)
    if type(value) is frozenset:
        return count(0x0A, len(value)) + b"".join(map(ref_encode, sorted(value, key=repr)))
    tag = bytes([WIRE_IDS[type(value).__name__]])
    if isinstance(value, enum.Enum):
        return tag + bytes([list(type(value)).index(value)])
    return tag + b"".join(ref_encode(getattr(value, name)) for name in fields_of(type(value)))


def ref_decode(data: bytes, pos: int = 0):
    """``(value, next_pos)`` of the value at ``pos``."""
    tag, pos = data[pos], pos + 1
    if tag <= 0x02:
        return (None, True, False)[tag], pos
    if tag in (0x03, 0x05, 0x06):
        end = pos + 4 + struct.unpack_from(">I", data, pos)[0]
        body = data[pos + 4 : end]
        assert len(body) == end - pos - 4
        convert = {0x03: lambda b: int.from_bytes(b, "big", signed=True), 0x05: bytes.decode}
        return convert.get(tag, bytes)(body), end
    if tag in (0x04, 0x0B):
        return struct.unpack_from(">d" if tag == 0x04 else ">q", data, pos)[0], pos + 8
    if tag in (0x07, 0x08, 0x09, 0x0A):
        n = struct.unpack_from(">I", data, pos)[0] * (2 if tag == 0x09 else 1)
        items, pos = [], pos + 4
        for _ in range(n):
            item, pos = ref_decode(data, pos)
            items.append(item)
        build = {0x07: list, 0x08: tuple, 0x0A: frozenset}.get(tag)
        return (build(items) if build else dict(zip(items[::2], items[1::2]))), pos
    cls = SHAPES[tag]
    if issubclass(cls, enum.Enum):
        return list(cls)[data[pos]], pos + 1
    fields = []
    for _ in fields_of(cls):
        field, pos = ref_decode(data, pos)
        fields.append(field)
    return cls(*fields), pos


# ------------------------------------------------------------ strategies

sql_types = st.one_of(
    st.sampled_from(["INT", "BIGINT", "FLOAT", "BIT"]).map(SqlType),
    st.builds(SqlType, st.sampled_from(["VARCHAR", "CHAR", "VARBINARY"]),
              st.none() | st.integers(0, 2**40)),
)
column_types = st.builds(
    ColumnType, sql_types,
    st.none() | st.builds(EncryptionInfo, st.sampled_from(EncryptionScheme),
                          st.text(max_size=12), st.booleans()),
)
names = st.text(max_size=12)
metadata = st.one_of(
    sql_types, column_types,
    st.builds(ResultColumn, names, column_types),
    st.builds(ParameterDescription, names, column_types),
)
shaped = st.one_of(
    metadata,
    st.builds(Ciphertext, st.binary(max_size=24)),
    st.builds(QueryResult, st.lists(st.builds(ResultColumn, names, column_types), max_size=3),
              st.lists(st.tuples(st.integers(), st.text(max_size=8)), max_size=3)),
    st.sampled_from(SAMPLES),
)
wire_values = st.recursive(
    st.one_of(values, shaped),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(st.text(max_size=6), children, max_size=4)),
    max_leaves=12,
)


@pytest.fixture()
def cold_memos(monkeypatch):
    """Empty, private memos for one test, so they start cold."""
    monkeypatch.setattr(encoding, "_decoded", {})
    monkeypatch.setattr(encoding, "_encoded", {})


def clear_memos():
    encoding._decoded.clear()
    encoding._encoded.clear()


# ------------------------------------------------------- equivalence


@settings(max_examples=300)
@given(wire_values)
def test_codec_matches_reference_cold_and_warm(value):
    clear_memos()
    expected = ref_encode(value)
    for _temperature in ("cold", "warm"):
        encoded = encode_value(value)
        assert encoded == expected
        decoded = decode_value(encoded)
        assert decoded == value
        assert type(decoded) is type(value)
        assert ref_decode(encoded) == (value, len(encoded))


@pytest.mark.parametrize("message", SAMPLES, ids=lambda m: type(m).__name__)
def test_every_message_matches_reference(message, cold_memos):
    for _temperature in ("cold", "warm"):
        payload = encode_value(message)
        assert payload == ref_encode(message)
        assert decode_value(payload) == message == ref_decode(payload)[0]


@settings(max_examples=1000)
@given(hostile_payloads())
def test_hostile_payloads_with_warm_memos(payload):
    for real in PAYLOADS:
        decode_value(real)
    assert encoding._decoded
    try:
        decode_value(payload)
    except CorruptFrameError:
        pass


# ------------------------------------------------------------ the memos


def varchar_column(length):
    return ResultColumn("c", ColumnType(SqlType("VARCHAR", length)))


def test_spans_sharing_a_prefix_stay_apart(cold_memos):
    short, long_ = varchar_column(16), varchar_column(160)
    payloads = [encode_value(short), encode_value(long_)]
    assert payloads[0][: encoding._PREFIX + 1] == payloads[1][: encoding._PREFIX + 1]
    for _ in range(2):
        assert [decode_value(p) for p in payloads] == [short, long_]
        assert [decode_value(p) for p in reversed(payloads)] == [long_, short]
    assert len(encoding._decoded[payloads[0][: encoding._PREFIX + 1]]) == 2


def nested_in_lists(value, depth):
    for _ in range(depth):
        value = [value]
    return value


def nested_payload(inner: bytes, depth: int) -> bytes:
    return b"\x07\x00\x00\x00\x01" * depth + inner


@pytest.mark.parametrize("shape", [
    ParameterDescription("w", ColumnType(SqlType("INT"))),
    SqlType("INT"),
])
def test_memo_hit_at_the_depth_limit_fails_as_a_fresh_one_does(shape, cold_memos):
    inner = encode_value(shape)
    # The deepest nesting a fresh decode accepts, each probe cold.
    deepest = max(
        depth for depth in range(encoding._MAX_DEPTH + 1)
        if clear_memos() or _decodes(nested_payload(inner, depth))
    )
    clear_memos()
    for _temperature in ("cold", "warm"):
        assert decode_value(inner) == shape
        assert encode_value(shape) == inner
        assert _decodes(nested_payload(inner, deepest))
        with pytest.raises(CorruptFrameError):
            decode_value(nested_payload(inner, deepest + 1))
        assert encode_value(nested_in_lists(shape, deepest)) == nested_payload(inner, deepest)
        with pytest.raises(ValueError):
            encode_value(nested_in_lists(shape, deepest + 1))
    assert encoding._decoded and encoding._encoded


def _decodes(payload: bytes) -> bool:
    try:
        decode_value(payload)
    except CorruptFrameError:
        return False
    return True


def test_memos_stay_bounded(cold_memos):
    columns = [ResultColumn(f"col{i}", ColumnType(SqlType("VARCHAR", i))) for i in range(10_000)]
    for column in columns:
        assert decode_value(encode_value(column)) == column
    assert 0 < len(encoding._encoded) <= encoding._ENTRIES
    assert 0 < len(encoding._decoded) <= encoding._PREFIXES
    assert max(map(len, encoding._decoded.values())) <= encoding._PER_PREFIX
    assert [decode_value(encode_value(c)) for c in columns[::97]] == columns[::97]


def test_mutable_metadata_is_never_memoized(cold_memos):
    metadata = CekMetadata(cek=dataclasses.replace(CEK_METADATA.cek), cmks=CEK_METADATA.cmks)
    first = encode_value(metadata)
    metadata.cek.encrypted_values = [CekEncryptedValue("CMK1", "RSA_OAEP", b"\x0f", b"\x06")]
    second = encode_value(metadata)
    assert second != first
    assert second == ref_encode(metadata)
    assert decode_value(second) == metadata
    assert not any(type(entry[0]) is CekMetadata for entry in encoding._encoded.values())


def test_a_memoized_shape_holding_a_container_is_not_remembered(cold_memos):
    """``SqlType`` does not check its length's type, so a peer can send a
    list there; such a value must not be shared between decodes."""
    odd = ColumnType(SqlType("VARCHAR", [16]))
    payload = encode_value(odd)
    first, second = decode_value(payload), decode_value(payload)
    first.sql_type.length.append(1)
    assert second == odd
    odd.sql_type.length.append(2)
    assert encode_value(odd) == ref_encode(odd) != payload


def test_threads_decode_correctly_while_the_memos_churn(cold_memos):
    fixed = [(encode_value(v), v) for v in (varchar_column(7), DESCRIBE_REPLY, EXECUTE_REPLY)]
    failures = []

    def churn():
        for i in range(3_000):
            column = ResultColumn(f"t{i}", ColumnType(SqlType("CHAR", i)))
            if decode_value(encode_value(column)) != column:
                failures.append(column)

    def check():
        for _ in range(1_500):
            for payload, value in fixed:
                if decode_value(payload) != value or encode_value(value) != payload:
                    failures.append(value)

    threads = [threading.Thread(target=f) for f in (churn, churn, check, check)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
