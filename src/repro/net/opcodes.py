"""The wire opcode registry: one name, one byte, forever.

Every frame carries a single opcode byte identifying the message type it
transports. The registry below is the *only* place opcode numbers are
assigned; message classes reference opcodes by name (their ``OP`` class
attribute) and the static analyzer lints that every opcode string literal
in the source appears here — a frame writer cannot invent an opcode the
registry (and therefore the decoder and the adversary's tap) does not
know about.

Opcode bytes are append-only: renumbering an existing opcode is a wire
format break and requires a protocol version bump in
:mod:`repro.net.frames`.
"""

from __future__ import annotations

#: name → wire byte. Grouped by plane; gaps leave room for growth.
OPCODES: dict[str, int] = {
    # connection handshake
    "hello": 0x01,
    "hello_reply": 0x02,
    "ok": 0x03,
    "error": 0x04,
    "ping": 0x05,
    # control plane (describe / attestation / key metadata)
    "describe": 0x10,
    "describe_reply": 0x11,
    "attest": 0x12,
    "attest_reply": 0x13,
    "cek_fetch": 0x14,
    "cek_fetch_reply": 0x15,
    "forward_package": 0x1A,
    # data plane (sessions and statements)
    "session_open": 0x20,
    "session_open_reply": 0x21,
    "session_close": 0x22,
    "execute": 0x23,
    "execute_reply": 0x24,
    # two-phase commit (router → shard)
    "txn_prepare": 0x30,
    "txn_commit_prepared": 0x31,
    "txn_abort_prepared": 0x32,
    "txn_indoubt": 0x33,
    "txn_indoubt_reply": 0x34,
    # administration (benchmark harness / torture tests)
    "admin_audit": 0x40,
    "admin_audit_reply": 0x41,
    "admin_crash": 0x42,
    "admin_recover": 0x43,
    "admin_recover_reply": 0x44,
    "admin_shutdown": 0x45,
    # online key lifecycle (rotation driven through router / shards)
    "admin_rotate_start": 0x46,
    "admin_rotate_step": 0x47,
    "admin_rotate_step_reply": 0x48,
    "admin_rotate_status": 0x49,
    "admin_rotate_status_reply": 0x4A,
    "admin_cek_versions": 0x4B,
    "admin_cek_versions_reply": 0x4C,
}

#: Bytes of retired opcodes, reserved forever: never assigned again. The
#: catalog reads (``cek_list``, ``table_info`` and their replies) went when
#: the server's describe began naming every statement's enclave keys.
RETIRED_OPCODES: dict[str, int] = {
    "cek_list": 0x16, "cek_list_reply": 0x17, "table_info": 0x18, "table_info_reply": 0x19,
}

_BY_BYTE: dict[int, str] = {byte: name for name, byte in OPCODES.items()}

if len(_BY_BYTE) != len(OPCODES) or set(_BY_BYTE) & set(RETIRED_OPCODES.values()):
    raise AssertionError("duplicate or retired opcode byte in OPCODES")


#: class name → the tag byte its values carry inside payloads
#: (:mod:`repro.net.encoding`). Assigned here and nowhere else — never by
#: registration order, which two processes need not share. Append-only
#: like the opcodes: an id is never renumbered or reused, a struct's
#: registered fields and an enum's members only ever grow at the end, and
#: any other change is a wire break that bumps the protocol version. Ids
#: below 0x10 are the codec's built-in primitives and containers; by
#: convention a message's id is its opcode with the high bit set.
WIRE_IDS: dict[str, int] = {
    # types, cells and catalog shapes
    "EncryptionScheme": 0x10, "Ciphertext": 0x11, "RowId": 0x12, "SqlType": 0x13,
    "EncryptionInfo": 0x14, "ColumnType": 0x15, "ResultColumn": 0x19, "QueryResult": 0x1A,
    # key metadata and describe results
    "CekEncryptedValue": 0x20, "ColumnEncryptionKey": 0x21, "ColumnMasterKey": 0x22,
    "ParameterDescription": 0x23, "CekMetadata": 0x24, "DescribeResult": 0x25,
    # attestation and the enclave channel
    "RsaPublicKey": 0x30, "HealthCertificate": 0x31, "EnclaveReport": 0x32,
    "SignedReport": 0x33, "AttestationInfo": 0x34, "SealedPackage": 0x35,
    # administration
    "RecoveryReport": 0x40, "RotationStatus": 0x41,
    # messages: connection handshake
    "Hello": 0x81, "HelloReply": 0x82, "Ok": 0x83, "ErrorReply": 0x84, "Ping": 0x85,
    # messages: control plane
    "Describe": 0x90, "DescribeReply": 0x91, "Attest": 0x92, "AttestReply": 0x93,
    "CekFetch": 0x94, "CekFetchReply": 0x95, "ForwardPackage": 0x9A,
    # messages: data plane
    "SessionOpen": 0xA0, "SessionOpenReply": 0xA1, "SessionClose": 0xA2,
    "Execute": 0xA3, "ExecuteReply": 0xA4,
    # messages: two-phase commit
    "TxnPrepare": 0xB0, "TxnCommitPrepared": 0xB1, "TxnAbortPrepared": 0xB2,
    "TxnIndoubt": 0xB3, "TxnIndoubtReply": 0xB4,
    # messages: administration and the online key lifecycle
    "AdminAudit": 0xC0, "AdminAuditReply": 0xC1, "AdminCrash": 0xC2, "AdminRecover": 0xC3,
    "AdminRecoverReply": 0xC4, "AdminShutdown": 0xC5, "AdminRotateStart": 0xC6,
    "AdminRotateStep": 0xC7, "AdminRotateStepReply": 0xC8, "AdminRotateStatus": 0xC9,
    "AdminRotateStatusReply": 0xCA, "AdminCekVersions": 0xCB, "AdminCekVersionsReply": 0xCC,
}

#: Ids of retired shapes, reserved forever like the retired opcodes: the
#: catalog shapes only ``table_info_reply`` carried, and the four messages.
RETIRED_WIRE_IDS: dict[str, int] = {
    "ColumnSchema": 0x16, "IndexSchema": 0x17, "TableSchema": 0x18,
    "CekList": 0x96, "CekListReply": 0x97, "TableInfo": 0x98, "TableInfoReply": 0x99,
}

_IDS = set(WIRE_IDS.values())
if len(_IDS) != len(WIRE_IDS) or _IDS & set(RETIRED_WIRE_IDS.values()):
    raise AssertionError("duplicate or retired wire id in WIRE_IDS")


def opcode_byte(name: str) -> int:
    """The wire byte for an opcode name; raises ``KeyError`` on unknowns."""
    return OPCODES[name]


def opcode_name(byte: int) -> str | None:
    """The opcode name for a wire byte, or ``None`` if unassigned."""
    return _BY_BYTE.get(byte)
