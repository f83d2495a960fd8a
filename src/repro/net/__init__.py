"""The byte-level wire protocol (host side).

This package promotes the in-process client/server seam into a real
serialized protocol: length-prefixed, versioned, CRC-protected frames
(:mod:`repro.net.frames`) carrying typed request/reply messages
(:mod:`repro.net.messages`) whose payloads are produced by a tagged
recursive binary codec (:mod:`repro.net.encoding`). On top of the codec
sit a client-side stub implementing the exact surface the AE driver
expects (:mod:`repro.net.remote`) and the one frame-server loop
(:mod:`repro.net.frameserver`) with its two users: a socket server
exposing one :class:`~repro.sqlengine.server.SqlServer`
(:mod:`repro.net.wireserver`), and a stateless router that
hash-partitions statements across N shard servers and coordinates
cross-shard two-phase commit (:mod:`repro.net.router`).

Everything here is *untrusted host* code: the strong adversary reads every
frame byte (see :meth:`repro.security.adversary.StrongAdversary`), so the
payloads it carries for encrypted columns are ciphertext envelopes —
serialization must not (and does not) change the leakage accounting.
This package must never import enclave internals; the static analyzer
enforces that (``repro.net`` is a host package) and additionally lints
that every opcode literal appears in :data:`repro.net.opcodes.OPCODES`.
"""

from repro.net.encoding import decode_value, encode_value, register_enum, register_struct
from repro.net.frames import (
    PROTOCOL_VERSION,
    CorruptFrameError,
    TruncatedFrameError,
    UnknownOpcodeError,
    VersionMismatchError,
    WireError,
    decode_frame,
    encode_frame,
)
from repro.net.opcodes import OPCODES, opcode_byte, opcode_name

__all__ = [
    "OPCODES",
    "PROTOCOL_VERSION",
    "CorruptFrameError",
    "TruncatedFrameError",
    "UnknownOpcodeError",
    "VersionMismatchError",
    "WireError",
    "decode_frame",
    "decode_value",
    "encode_frame",
    "encode_value",
    "opcode_byte",
    "opcode_name",
    "register_enum",
    "register_struct",
]
