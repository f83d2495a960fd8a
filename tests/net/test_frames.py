"""Property tests for the frame codec and tagged value encoding.

The frame layer is the trust boundary's narrowest point: every byte a
peer sends passes through :func:`try_decode` before anything else looks
at it. The properties here pin the codec's contract:

* encode→decode identity for every encodable value and every frame;
* a truncated stream never yields a frame (and never crashes);
* any single corrupted byte is *detected* — magic, version, opcode and
  length are validated from the header, everything else by CRC;
* unknown opcodes and foreign protocol versions are typed rejections,
  so a peer of another version gets :class:`VersionMismatchError`, not
  garbage;
* a payload that passed its CRC but is not a well-formed value — random
  bytes, or any one-byte mutation or truncation of a real message —
  raises :class:`CorruptFrameError` and nothing else, so the serving
  loop's ``except WireError`` is all the handling a hostile peer needs;
* however ``recv`` cuts a stream, a channel hands out its frames one at a
  time, and a ``recv`` of exactly one whole frame is the frame returned.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import (
    CorruptFrameError,
    TruncatedFrameError,
    UnknownOpcodeError,
    VersionMismatchError,
)
from repro.net.encoding import decode_value, encode_value
from repro.net.frames import (
    FRAME_HEADER_LEN,
    MAGIC,
    PROTOCOL_VERSION,
    decode_frame,
    encode_frame,
    try_decode,
)
from repro.net.opcodes import OPCODES, opcode_byte
from repro.net.transport import FrameChannel
from tests.net.test_messages import SAMPLES

# ---------------------------------------------------------------- strategies

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=40),
    st.binary(max_size=40),
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=10), children, max_size=5),
        st.frozensets(
            st.one_of(st.integers(), st.text(max_size=10)), max_size=5
        ),
    ),
    max_leaves=25,
)

opcodes = st.sampled_from(sorted(OPCODES.values()))


# ------------------------------------------------------------ value round-trip


@settings(max_examples=200)
@given(values)
def test_value_roundtrip_identity(value):
    assert decode_value(encode_value(value)) == value


@settings(max_examples=100)
@given(values)
def test_value_roundtrip_preserves_type_shape(value):
    decoded = decode_value(encode_value(value))
    assert type(decoded) is type(value)


@settings(max_examples=100)
@given(values, st.integers(min_value=0, max_value=30))
def test_truncated_value_never_decodes_silently(value, cut):
    encoded = encode_value(value)
    if cut >= len(encoded):
        return
    with pytest.raises(CorruptFrameError):
        decode_value(encoded[: len(encoded) - 1 - cut])


#: one valid payload per message class (tests/net/test_messages.py keeps
#: SAMPLES total over MESSAGE_TYPES), to be damaged one byte at a time.
PAYLOADS = [encode_value(sample) for sample in SAMPLES]


@st.composite
def hostile_payloads(draw):
    """Random bytes, or a real payload truncated or with one byte replaced."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    payload = draw(st.sampled_from(PAYLOADS))
    at = draw(st.integers(min_value=0, max_value=len(payload) - 1))
    if draw(st.booleans()):
        return payload[:at]
    return payload[:at] + bytes([draw(st.integers(0, 255))]) + payload[at + 1 :]


@settings(max_examples=1000)
@given(hostile_payloads())
@example(b"\x05\x00\x00\x00\x02\xff\xfe")                                 # str, not UTF-8
@example(b"\x09\x00\x00\x00\x01" + b"\x07\x00\x00\x00\x00" + b"\x00")      # {[]: None}
@example(b"\x0a\x00\x00\x00\x01" + b"\x07\x00\x00\x00\x00")                # frozenset({[]})
def test_malformed_payload_decodes_or_raises_corrupt_frame_error(payload):
    """The three examples raised UnicodeDecodeError and TypeError until
    wire v2, either of which killed the connection's handler thread with
    a traceback instead of dropping the connection."""
    try:
        decode_value(payload)
    except CorruptFrameError:
        pass


# ------------------------------------------------------------ frame round-trip


@settings(max_examples=200)
@given(opcodes, st.binary(max_size=200))
def test_frame_roundtrip_identity(opcode, payload):
    frame = encode_frame(opcode, payload)
    assert decode_frame(frame) == (opcode, payload)
    assert try_decode(frame) == (opcode, payload, len(frame))


@settings(max_examples=100)
@given(opcodes, st.binary(max_size=100), st.data())
def test_partial_frame_returns_none(opcode, payload, data):
    """A streaming reader holding any strict prefix must keep waiting."""
    frame = encode_frame(opcode, payload)
    cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
    assert try_decode(frame[:cut]) is None


@settings(max_examples=100)
@given(opcodes, st.binary(min_size=1, max_size=100))
def test_truncated_strict_decode_raises(opcode, payload):
    frame = encode_frame(opcode, payload)
    with pytest.raises(TruncatedFrameError):
        decode_frame(frame[:-1])


@settings(max_examples=100)
@given(opcodes, st.binary(max_size=100), st.binary(min_size=1, max_size=8))
def test_trailing_bytes_rejected(opcode, payload, trailing):
    frame = encode_frame(opcode, payload)
    with pytest.raises(CorruptFrameError):
        decode_frame(frame + trailing)


@settings(max_examples=200)
@given(opcodes, st.binary(min_size=1, max_size=100), st.data())
def test_any_corrupted_payload_byte_is_detected(opcode, payload, data):
    """Flip one payload byte: the CRC must catch it."""
    frame = bytearray(encode_frame(opcode, payload))
    index = data.draw(
        st.integers(min_value=FRAME_HEADER_LEN, max_value=len(frame) - 1)
    )
    flip = data.draw(st.integers(min_value=1, max_value=255))
    frame[index] ^= flip
    with pytest.raises(CorruptFrameError):
        decode_frame(bytes(frame))


def test_bad_magic_rejected_before_payload_arrives():
    """Garbage at the stream head fails fast, even below header length."""
    with pytest.raises(CorruptFrameError):
        try_decode(b"XX")
    with pytest.raises(CorruptFrameError):
        try_decode(b"QE" + b"\x00" * 20)


def test_version_mismatch_is_typed():
    frame = encode_frame(opcode_byte("ping"), b"", version=PROTOCOL_VERSION + 1)
    with pytest.raises(VersionMismatchError):
        try_decode(frame)


def test_unknown_opcode_rejected():
    unused = next(b for b in range(256) if b not in OPCODES.values())
    frame = bytearray(encode_frame(opcode_byte("ping"), b""))
    frame[3] = unused
    with pytest.raises(UnknownOpcodeError):
        try_decode(bytes(frame))


def test_magic_prefix_of_one_byte_waits_for_more():
    assert try_decode(MAGIC[:1]) is None
    assert try_decode(b"") is None


def test_oversized_length_prefix_is_corruption():
    header = bytearray(encode_frame(opcode_byte("ping"), b""))
    header[4:8] = (0xFFFFFFFF).to_bytes(4, "big")
    with pytest.raises(CorruptFrameError):
        try_decode(bytes(header))


# ------------------------------------------------------------ receiving


class ChunkedSocket:
    """A socket stand-in whose ``recv`` hands out ``chunks`` in order, then EOF."""

    def __init__(self, chunks):
        self.chunks = list(chunks)

    def recv(self, size):
        return self.chunks.pop(0) if self.chunks else b""

    def shutdown(self, how):
        pass

    def close(self):
        pass


def test_a_recv_of_one_whole_frame_is_the_frame_returned():
    chunk = encode_frame(opcode_byte("ping"), b"payload")
    channel = FrameChannel(ChunkedSocket([chunk]))
    opcode, payload, frame = channel.recv_frame()
    assert (opcode, payload) == (opcode_byte("ping"), b"payload")
    assert frame is chunk
    assert channel.recv_frame() is None


@settings(max_examples=200)
@given(st.lists(st.tuples(opcodes, st.binary(max_size=40)), min_size=1, max_size=5), st.data())
def test_a_split_or_coalesced_stream_decodes_frame_by_frame(messages, data):
    """However the stream is cut into ``recv`` chunks, frames come out one at
    a time, in order, with the tap seeing each frame's bytes; a chunk that is
    exactly one whole frame comes out as itself."""
    frames = [encode_frame(opcode, payload) for opcode, payload in messages]
    stream = b"".join(frames)
    cuts = sorted(data.draw(st.sets(st.integers(1, len(stream) - 1), max_size=8)))
    bounds = [0, *cuts, len(stream)]
    chunks = [stream[a:b] for a, b in zip(bounds, bounds[1:])]
    tapped = []
    channel = FrameChannel(ChunkedSocket(chunks), tap=lambda *seen: tapped.append(seen))

    received = [channel.recv_frame() for _ in frames]

    assert channel.recv_frame() is None
    assert [(opcode, payload) for opcode, payload, _frame in received] == messages
    assert [frame for _opcode, _payload, frame in received] == frames
    assert tapped == [("recv", opcode, frame) for opcode, _payload, frame in received]
    starts = {sum(map(len, frames[:i])): i for i in range(len(frames))}
    for start, chunk in zip(bounds, chunks):
        index = starts.get(start)
        if index is not None and chunk == frames[index]:
            assert received[index][2] is chunk


def test_a_stream_cut_mid_frame_is_truncated():
    frame = encode_frame(opcode_byte("ping"), b"payload")
    channel = FrameChannel(ChunkedSocket([frame[:5]]))
    with pytest.raises(TruncatedFrameError):
        channel.recv_frame()
