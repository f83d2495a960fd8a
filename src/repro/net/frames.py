"""Length-prefixed, versioned, CRC-protected wire frames.

Frame layout (all integers big-endian)::

    offset  size  field
    ------  ----  -----------------------------------------------
    0       2     magic ``b"AE"``
    2       1     protocol version (:data:`PROTOCOL_VERSION`)
    3       1     opcode byte (:data:`repro.net.opcodes.OPCODES`)
    4       4     payload length ``n`` (u32)
    8       4     CRC32 of the payload bytes
    12      n     payload (one tagged value, :mod:`repro.net.encoding`)

The decoder is written for streaming use: :func:`try_decode` returns
``None`` when the buffer holds an incomplete frame (the caller reads more
bytes) and raises a typed :class:`~repro.errors.WireError` subclass when
the bytes it *does* have are already known to be invalid — a bad magic or
version or opcode is rejected before the payload arrives, so a corrupted
stream fails fast instead of waiting on a garbage length prefix.

Everything in a frame except the payload is visible plaintext to the wire
adversary by design; confidentiality lives entirely in the ciphertext
envelopes *inside* payloads, never in the framing.
"""

from __future__ import annotations

import struct
import zlib

from repro.errors import (
    CorruptFrameError,
    TruncatedFrameError,
    UnknownOpcodeError,
    VersionMismatchError,
)
from repro.net.opcodes import OPCODES

__all__ = [
    "FRAME_HEADER_LEN",
    "MAGIC",
    "MAX_PAYLOAD_LEN",
    "PROTOCOL_VERSION",
    "decode_frame",
    "encode_frame",
    "try_decode",
]

MAGIC = b"AE"
PROTOCOL_VERSION = 2

#: magic(2) + version(1) + opcode(1) + payload_len(4) + crc32(4)
FRAME_HEADER_LEN = 12
_HEADER = struct.Struct(">2sBBII")

#: Hard ceiling on a single payload (64 MiB). A length prefix beyond this
#: is treated as stream corruption rather than an allocation request.
MAX_PAYLOAD_LEN = 64 * 1024 * 1024

_OPCODES = frozenset(OPCODES.values())


def encode_frame(opcode: int, payload: bytes, *, version: int = PROTOCOL_VERSION) -> bytes:
    """Serialize one frame for ``opcode`` carrying ``payload``."""
    if not 0 <= opcode <= 0xFF:
        raise ValueError(f"opcode byte out of range: {opcode}")
    if len(payload) > MAX_PAYLOAD_LEN:
        raise ValueError(f"payload too large: {len(payload)} bytes")
    header = _HEADER.pack(MAGIC, version, opcode, len(payload), zlib.crc32(payload))
    return header + payload


def try_decode(buffer: bytes | bytearray) -> tuple[int, bytes, int] | None:
    """Decode the first frame in ``buffer`` if it is complete.

    Returns ``(opcode, payload, consumed)`` on success, ``None`` when more
    bytes are needed, and raises a :class:`WireError` subclass when the
    prefix already present is invalid. ``buffer`` is read in place (a
    chunk as it came off the socket, or a channel's receive buffer):
    nothing is copied until the frame is whole, and then only the
    payload.
    """
    if len(buffer) < FRAME_HEADER_LEN:
        # Validate what we can see so a garbage prefix fails immediately.
        if buffer[:2] not in (MAGIC, MAGIC[:1], b""):
            raise CorruptFrameError(f"bad frame magic {buffer[:2]!r}")
        return None
    magic, version, opcode, length, crc = _HEADER.unpack_from(buffer)
    if magic != MAGIC:
        raise CorruptFrameError(f"bad frame magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise VersionMismatchError(
            f"peer speaks protocol version {version}, this endpoint speaks {PROTOCOL_VERSION}"
        )
    if opcode not in _OPCODES:
        raise UnknownOpcodeError(f"unknown opcode byte 0x{opcode:02X}")
    if length > MAX_PAYLOAD_LEN:
        raise CorruptFrameError(f"declared payload length {length} exceeds maximum")
    total = FRAME_HEADER_LEN + length
    if len(buffer) < total:
        return None
    payload = bytes(buffer[FRAME_HEADER_LEN:total])  # of a bytes slice: the slice itself
    if zlib.crc32(payload) != crc:
        raise CorruptFrameError("frame payload failed CRC check")
    return opcode, payload, total


def decode_frame(data: bytes) -> tuple[int, bytes]:
    """Strictly decode exactly one frame occupying all of ``data``.

    Raises :class:`TruncatedFrameError` when ``data`` ends early and
    :class:`CorruptFrameError` when trailing bytes follow the frame.
    """
    decoded = try_decode(data)
    if decoded is None:
        raise TruncatedFrameError(
            f"frame truncated: have {len(data)} bytes, need at least "
            f"{FRAME_HEADER_LEN if len(data) < FRAME_HEADER_LEN else FRAME_HEADER_LEN + _HEADER.unpack_from(data)[3]}"
        )
    opcode, payload, consumed = decoded
    if consumed != len(data):
        raise CorruptFrameError(f"{len(data) - consumed} trailing bytes after frame")
    return opcode, payload
