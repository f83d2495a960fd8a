"""Message-layer round trips: typed payloads and error marshalling.

The invariants the rest of the system leans on:

* every message type survives encode→decode with nested catalog/crypto
  metadata intact — *every*: a message class without a sample fails;
* the bytes are protocol v2's: four pinned frames, and a digest of every
  sample frame, fail on any format change that does not also bump the
  version, and a v1 frame is refused;
* a frame whose opcode disagrees with its payload type is rejected (a
  confused peer cannot smuggle an Execute inside a CekFetch frame);
* ``QueryResult.stats`` — server-side telemetry holding plaintext-adjacent
  timing detail — never crosses the wire;
* typed errors reconstruct to their concrete :class:`ReproError`
  subclass (the quarantine contract: a remote ``StaleRestoreError`` must
  refuse work client-side exactly like a local one), and unknown types
  degrade to :class:`RemoteError` instead of crashing the channel.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.attestation.hgs import HealthCertificate
from repro.attestation.protocol import AttestationInfo
from repro.attestation.report import EnclaveReport, SignedReport
from repro.crypto.rsa import RsaPublicKey
from repro.enclave import SealedPackage
from repro.errors import (
    ConstraintError,
    CorruptFrameError,
    LockTimeoutError,
    RemoteError,
    StaleRestoreError,
    TransientFault,
    UnknownOpcodeError,
    VersionMismatchError,
)
from repro.keys.cek import CekEncryptedValue, ColumnEncryptionKey
from repro.keys.cmk import ColumnMasterKey
from repro.net import messages as msg
from repro.net.encoding import decode_value, encode_value
from repro.net.frames import (
    FRAME_HEADER_LEN,
    PROTOCOL_VERSION,
    decode_frame,
    encode_frame,
    try_decode,
)
from repro.net.opcodes import OPCODES, RETIRED_OPCODES, RETIRED_WIRE_IDS, WIRE_IDS, opcode_byte
from repro.sqlengine.cells import Ciphertext
from repro.sqlengine.engine import RecoveryReport
from repro.sqlengine.exec.executor import QueryResult, ResultColumn
from repro.sqlengine.rotation import RotationStatus
from repro.sqlengine.server import CekMetadata, DescribeResult, ParameterDescription
from repro.sqlengine.types import ColumnType, EncryptionInfo, EncryptionScheme, SqlType


def roundtrip(message):
    """encode_message emits a whole frame; peel it like the transport does."""
    opcode, payload = decode_frame(msg.encode_message(message))
    return msg.decode_message(opcode, payload)


# Small hand-made values (one-byte signatures, a 65-bit modulus) keep the
# pinned frames below readable; the shapes are the real ones.
RSA = RsaPublicKey(n=2**64 + 13, e=65537)
INT = ColumnType(SqlType("INT"))
RND_INT = ColumnType(SqlType("INT"), EncryptionInfo(EncryptionScheme.RANDOMIZED, "CEK1", True))
CMK = ColumnMasterKey("CMK1", "AZURE_KEY_VAULT_PROVIDER", "https://vault/k", True, b"\x0c")
CEK = ColumnEncryptionKey("CEK1", [CekEncryptedValue("CMK1", "RSA_OAEP", b"\x0e", b"\x05")])
CEK_METADATA = CekMetadata(cek=CEK, cmks=(CMK,))
ATTESTATION = AttestationInfo(
    health_certificate=HealthCertificate(RSA, issued_at=1.5, signature=b"\xaa"),
    signed_report=SignedReport(EnclaveReport(b"\x01", b"\x02", 3, 4, b"\x05"), b"\xbb"),
    enclave_rsa_public=RSA,
    enclave_dh_public=2**70,
    dh_signature=b"\xcc",
    session_id=9,
)

EXECUTE = msg.Execute(session_id=1, query_text="SELECT @a", params={"a": 1, "b": b"\x00"})
#: every cell kind a result carries: int, str, ciphertext, NULL, float.
EXECUTE_REPLY = msg.ExecuteReply(
    result=QueryResult(
        columns=[ResultColumn("id", INT), ResultColumn("v", RND_INT)],
        rows=[(1, "x", Ciphertext(b"\x01\x02\x03"), None, 2.5)],
        rowcount=1,
        plan_info="seek",
    ),
    in_transaction=True,
)
#: an encrypted parameter on an enclave-enabled column, first use on the
#: connection: parameter CEK metadata, enclave CEKs and attestation all ride.
DESCRIBE_REPLY = msg.DescribeReply(
    result=DescribeResult(
        parameters=[ParameterDescription("w", INT), ParameterDescription("v", RND_INT)],
        parameter_ceks={"CEK1": CEK_METADATA},
        enclave_ceks=[CEK_METADATA],
        attestation=ATTESTATION,
    )
)
ERROR_REPLY = msg.ErrorReply(error_type="ConstraintError", message="dup", in_transaction=True)

SAMPLES = [
    msg.Hello(affinity=7),
    msg.Hello(),
    msg.HelloReply(
        protocol_version=PROTOCOL_VERSION, server_name="shard3", shard_count=8, hgs_public=RSA
    ),
    msg.Ok(),
    msg.Ping(),
    ERROR_REPLY,
    msg.Describe(query_text="SELECT 1", client_dh_public=2**2047 + 12345),
    DESCRIBE_REPLY,
    msg.Attest(client_dh_public=2**2047 + 1),
    msg.AttestReply(info=ATTESTATION),
    msg.CekFetch(cek_name="TpccCEK"),
    msg.CekFetchReply(metadata=CEK_METADATA),
    msg.ForwardPackage(enclave_session_id=3, sealed=SealedPackage(b"\x01\xac\x85")),
    msg.SessionOpen(affinity=3),
    msg.SessionOpenReply(session_id=42),
    msg.SessionClose(session_id=42),
    EXECUTE,
    EXECUTE_REPLY,
    msg.TxnPrepare(session_id=9, gtid="router:17"),
    msg.TxnCommitPrepared(gtid="router:17"),
    msg.TxnAbortPrepared(gtid="router:17"),
    msg.TxnIndoubt(),
    msg.TxnIndoubtReply(gtids=["a:1", "b:2"]),
    msg.AdminAudit(),
    msg.AdminAuditReply(violations=["w 1: lost money"]),
    msg.AdminCrash(),
    msg.AdminRecover(),
    msg.AdminRecoverReply(
        report=RecoveryReport(redone=4, undone=[7], indoubt=["router:17"], freshness_verified=True)
    ),
    msg.AdminShutdown(),
    msg.AdminRotateStart(
        table="T", column="v", new_cek="CEK2", query_text="ALTER ...", batch_size=8,
        scheme=EncryptionScheme.DETERMINISTIC,
    ),
    msg.AdminRotateStep(rotation_id="rot-1", max_batches=2),
    msg.AdminRotateStepReply(rotation_id="rot-1", more=False, rows_rotated=16),
    msg.AdminRotateStatus(),
    msg.AdminRotateStatusReply(
        statuses=[RotationStatus("rot-1", "T", "v", "CEK1", "CEK2", "rotate", 5, 16, True)]
    ),
    msg.AdminCekVersions(),
    msg.AdminCekVersionsReply(versions={"CEK1": 2, "CEK2": 1}),
]


@pytest.mark.parametrize("message", SAMPLES, ids=lambda m: type(m).__name__)
def test_message_roundtrip(message):
    decoded = roundtrip(message)
    assert decoded == message
    assert type(decoded) is type(message)


def test_every_message_class_has_a_roundtrip_sample():
    missing = set(msg.MESSAGE_TYPES.values()) - {type(sample) for sample in SAMPLES}
    assert not missing, f"no round-trip sample for {sorted(c.__name__ for c in missing)}"


# ------------------------------------------------------------- golden bytes
# The exact protocol-v2 frames. A change to the value layout, a wire id, a
# field order or an opcode moves these bytes: bump PROTOCOL_VERSION with it
# (docs/WIRE.md, Versioning) and re-pin. The first and last are annotated
# field by field; the other two are the same grammar, only longer.

GOLDEN = {
    "Execute": (
        EXECUTE,
        "4145 02 23 00000038 2e8325ac"        # magic, version, opcode, length, CRC32
        "a3"                                  # Execute
        "0b 0000000000000001"                 # session_id: int64
        "05 00000009 53454c454354204061"      # query_text: str "SELECT @a"
        "09 00000002"                         # params: dict of 2
        "05 00000001 61 0b 0000000000000001"  # "a": 1
        "05 00000001 62 06 00000001 00",      # "b": b"\x00"
    ),
    "ExecuteReply": (
        EXECUTE_REPLY,
        "414502240000009b39106fd9a41a0700000002190500000002696415130500000003494e540000190500"
        "0000017615130500000003494e5400141001050000000443454b3101050000001d414541445f4145535f"
        "3235365f4342435f484d41435f5348415f323536070000000108000000050b0000000000000001050000"
        "000178110600000003010203000440040000000000000b000000000000000105000000047365656b01",
    ),
    "DescribeReply": (
        DESCRIBE_REPLY,
        "41450211000001ec7e55d507912507000000022305000000017715130500000003494e54000023050000"
        "00017615130500000003494e5400141001050000000443454b3101050000001d414541445f4145535f32"
        "35365f4342435f484d41435f5348415f3235360900000001050000000443454b31242105000000044345"
        "4b310700000001200500000004434d4b3105000000085253415f4f41455006000000010e060000000105"
        "0800000001220500000004434d4b310500000018415a5552455f4b45595f5641554c545f50524f564944"
        "4552050000000f68747470733a2f2f7661756c742f6b0106000000010c07000000012421050000000443"
        "454b310700000001200500000004434d4b3105000000085253415f4f41455006000000010e0600000001"
        "050800000001220500000004434d4b310500000018415a5552455f4b45595f5641554c545f50524f5649"
        "444552050000000f68747470733a2f2f7661756c742f6b0106000000010c343130030000000901000000"
        "000000000d0b0000000000010001043ff80000000000000600000001aa33320600000001010600000001"
        "020b00000000000000030b00000000000000040600000001050600000001bb3003000000090100000000"
        "0000000d0b000000000001000103000000094000000000000000000600000001cc0b0000000000000009",
    ),
    "ErrorReply": (
        ERROR_REPLY,
        "4145 02 04 0000001e 943598a6"
        "84"                                               # ErrorReply
        "05 0000000f 436f6e73747261696e744572726f72"       # error_type: "ConstraintError"
        "05 00000003 647570"                               # message: "dup"
        "01",                                              # in_transaction: True
    ),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_v2_frame_bytes_are_pinned(name):
    message, golden = GOLDEN[name]
    frame = bytes.fromhex(golden)
    assert msg.encode_message(message) == frame
    assert msg.decode_message(*decode_frame(frame)) == message


#: SHA-256 (first 16 hex digits) of every SAMPLES frame, in SAMPLES order:
#: the other messages' bytes, pinned as compactly. A field added to a
#: request, a field reordered or a default that starts travelling moves
#: one of these; re-pin only with a PROTOCOL_VERSION bump.
FRAME_DIGESTS = [
    "f8b70b3a613fe196",  # Hello
    "3d5852a5596698dd",  # Hello
    "5676b369f1073824",  # HelloReply
    "69e8b886d6705f66",  # Ok
    "239f4bf386d8873a",  # Ping
    "3d9e9f9f6045288a",  # ErrorReply
    "c7c130306fe6ea5c",  # Describe
    "7b6dc155837c9164",  # DescribeReply
    "3433780c7623b5ff",  # Attest
    "508c20a28b9b299c",  # AttestReply
    "158f15d7708b5e1a",  # CekFetch
    "dd33c4894849d9bb",  # CekFetchReply
    "af6d1e4dbee5cd14",  # ForwardPackage
    "4f41aadab5422175",  # SessionOpen
    "d64261aac09d69bb",  # SessionOpenReply
    "4cdb46427aac4188",  # SessionClose
    "1e4f80d75690a5e3",  # Execute
    "f93ebbc180eb2a22",  # ExecuteReply
    "1aab8e2a8f36052b",  # TxnPrepare
    "cf792aa95d7765aa",  # TxnCommitPrepared
    "e4452d74ceb45c55",  # TxnAbortPrepared
    "14ff01b7a502b783",  # TxnIndoubt
    "a207d2fd70ee5fd1",  # TxnIndoubtReply
    "debea85a6bba3512",  # AdminAudit
    "6cfe6202138b15df",  # AdminAuditReply
    "4d22ee0dc5e7d846",  # AdminCrash
    "8005f4eb56773b97",  # AdminRecover
    "c04d4e555db76e32",  # AdminRecoverReply
    "227f7f7f522c2df3",  # AdminShutdown
    "e88f50b6d9452ab8",  # AdminRotateStart
    "70ba7c1746b09a31",  # AdminRotateStep
    "0ef2e64dc2d91c68",  # AdminRotateStepReply
    "eca42b307db8f0f2",  # AdminRotateStatus
    "09bc4b2a22508712",  # AdminRotateStatusReply
    "16a1d40942454c51",  # AdminCekVersions
    "febc68741ebaa540",  # AdminCekVersionsReply
]


def test_every_sample_frame_is_pinned():
    assert len(FRAME_DIGESTS) == len(SAMPLES)
    for sample, digest in zip(SAMPLES, FRAME_DIGESTS):
        frame = msg.encode_message(sample)
        assert hashlib.sha256(frame).hexdigest()[:16] == digest, type(sample).__name__


def test_v1_frame_is_refused():
    """A v1 peer's first frame fails on its header's version byte, before
    the (differently laid out) payload has even arrived."""
    v1_hello = encode_frame(opcode_byte("hello"), b"\x0c\x00\x00\x00\x05Hello", version=1)
    with pytest.raises(VersionMismatchError):
        try_decode(v1_hello[:FRAME_HEADER_LEN])
    with pytest.raises(VersionMismatchError):
        decode_frame(v1_hello)


def test_every_message_opcode_is_registered():
    for name, cls in msg.MESSAGE_TYPES.items():
        assert name in OPCODES, f"{cls.__name__} opcode {name!r} missing from registry"


def test_retired_opcodes_and_wire_ids_stay_reserved():
    """The catalog reads are gone, and their bytes are never handed out again."""
    assert set(RETIRED_OPCODES.values()) == {0x16, 0x17, 0x18, 0x19}
    assert not set(RETIRED_OPCODES) & set(OPCODES)
    assert not set(RETIRED_OPCODES.values()) & set(OPCODES.values())
    assert not set(RETIRED_WIRE_IDS) & set(WIRE_IDS)
    assert not set(RETIRED_WIRE_IDS.values()) & set(WIRE_IDS.values())
    with pytest.raises(UnknownOpcodeError):
        decode_frame(encode_frame(RETIRED_OPCODES["table_info"], encode_value(msg.Ping())))


def test_opcode_payload_mismatch_rejected():
    payload = msg.encode_message(msg.Ping())
    with pytest.raises(CorruptFrameError):
        msg.decode_message(opcode_byte("execute"), payload)


def test_query_result_stats_never_cross_the_wire():
    result = QueryResult(rows=[(1,)], rowcount=1)
    result.stats = object()     # whatever the server attached
    reply = msg.ExecuteReply(result=result, in_transaction=False)
    decoded = roundtrip(reply)
    assert decoded.result.stats is None
    assert decoded.result.rows == [(1,)]


# ------------------------------------------------------------ error marshal


@pytest.mark.parametrize(
    "exc",
    [
        ConstraintError("duplicate key in PK_CUSTOMER"),
        LockTimeoutError("lock wait on WAREHOUSE exceeded 0.15s"),
        StaleRestoreError("anchor says epoch 9, WAL says epoch 7"),
        TransientFault("net.send_frame"),
    ],
    ids=lambda e: type(e).__name__,
)
def test_typed_errors_reconstruct_concrete_class(exc):
    reply = msg.error_reply_for(exc, in_transaction=False)
    encoded = roundtrip(reply)
    rebuilt = msg.reconstruct_error(encoded)
    assert type(rebuilt).__name__ == type(exc).__name__
    assert str(exc) in str(rebuilt) or str(rebuilt) in str(exc) or str(rebuilt)


def test_unknown_error_type_degrades_to_remote_error():
    reply = msg.ErrorReply(error_type="NoSuchErrorClass", message="boom")
    rebuilt = msg.reconstruct_error(reply)
    assert isinstance(rebuilt, RemoteError)
    assert rebuilt.error_type == "NoSuchErrorClass"
    assert "boom" in str(rebuilt)


def test_non_repro_error_type_not_instantiated():
    """Only ReproError subclasses reconstruct — never arbitrary classes."""
    reply = msg.ErrorReply(error_type="SystemExit", message="0")
    rebuilt = msg.reconstruct_error(reply)
    assert isinstance(rebuilt, RemoteError)


def test_every_registry_opcode_has_a_message():
    import repro.net.messages as messages
    from repro.net.opcodes import OPCODES

    by_op = {
        cls.OP
        for cls in vars(messages).values()
        if isinstance(cls, type) and hasattr(cls, "OP")
    }
    assert set(OPCODES) == by_op


def test_every_error_subclass_is_reconstructible_or_registered():
    import repro.errors as errors_mod
    from repro.errors import RemoteError, ReproError
    from repro.net.messages import (
        NONRECONSTRUCTIBLE_ERRORS,
        error_reply_for,
        reconstruct_error,
    )

    for name in dir(errors_mod):
        cls = getattr(errors_mod, name)
        if not (isinstance(cls, type) and issubclass(cls, ReproError)):
            continue
        if cls is ReproError or name in NONRECONSTRUCTIBLE_ERRORS:
            continue
        try:
            exc = cls("probe message")
        except TypeError:
            pytest.fail(f"{name} is unregistered yet not message-constructible")
        rebuilt = reconstruct_error(error_reply_for(exc))
        assert type(rebuilt) is cls, name
        assert not isinstance(rebuilt, RemoteError)
        # A first parameter that is not the message (a site, a shard)
        # would swallow the text on the way back: the rebuilt error must
        # say what the original said.
        assert str(rebuilt) == str(exc), name


def test_unregistered_struct_rejected_at_decode():
    class NotRegistered:
        pass

    with pytest.raises(Exception):
        encode_value(NotRegistered())


def test_decode_depth_limit_blocks_nesting_bombs():
    deep = []
    for __ in range(64):
        deep = [deep]
    with pytest.raises(CorruptFrameError):
        decode_value(encode_value_unchecked(deep))


def encode_value_unchecked(value):
    """Encode nested lists by hand, deeper than the decoder allows."""
    import struct

    if isinstance(value, list):
        body = b"".join(encode_value_unchecked(v) for v in value)
        return b"\x07" + struct.pack(">I", len(value)) + body
    raise AssertionError("only lists here")
