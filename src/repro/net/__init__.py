"""The byte-level wire protocol (host side).

This package promotes the in-process client/server seam into a real
serialized protocol: length-prefixed, versioned, CRC-protected frames
(:mod:`repro.net.frames`) carrying typed request/reply messages
(:mod:`repro.net.messages`) whose payloads are produced by a closed,
schema-compiled binary codec (:mod:`repro.net.encoding`). On top of the codec
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
that every opcode literal appears in :data:`repro.net.opcodes.OPCODES`
and every shape the codec carries has its id in ``WIRE_IDS`` beside it.
Import what you need from the submodule that defines it.
"""
