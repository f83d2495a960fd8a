"""Typed wire messages and the registry of shapes that may ride them.

Each message is a small dataclass whose ``OP`` class attribute names its
opcode in :data:`repro.net.opcodes.OPCODES`. A message serializes as a
frame whose payload is the tagged encoding of the message itself
(messages are registered structs), so the full round trip is::

    frame_bytes = encode_message(Hello(affinity=3))
    msg = decode_message(*decode_frame(frame_bytes))   # -> Hello(affinity=3)

This module also registers every *metadata* dataclass the protocol
carries — ciphertext envelopes, column types, CEK/CMK metadata, the
attestation bundle, query results — pinning exactly which shapes can
cross the wire. ``QueryResult`` is registered without its ``stats``
field: per-statement telemetry is a server-side attachment and never
serializes.

Error marshalling: any server-side :class:`~repro.errors.ReproError`
becomes an :class:`ErrorReply` carrying the concrete type name and
message; :func:`reconstruct_error` maps the name back to the class on the
client so typed handling (``except StaleRestoreError``, quarantine
refusals, transient classification) works identically over the wire.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any

import repro.errors as _errors
from repro.attestation.hgs import HealthCertificate
from repro.attestation.protocol import AttestationInfo
from repro.attestation.report import EnclaveReport, SignedReport
from repro.crypto.rsa import RsaPublicKey
from repro.enclave import SealedPackage
from repro.errors import RemoteError, ReproError, UnknownOpcodeError, WireError
from repro.keys.cek import CekEncryptedValue, ColumnEncryptionKey
from repro.keys.cmk import ColumnMasterKey
from repro.net.encoding import decode_value, encode_value, memoize_structs
from repro.net.encoding import register_enum, register_struct
from repro.net.frames import encode_frame
from repro.net.opcodes import OPCODES, opcode_byte
from repro.sqlengine.cells import Ciphertext
from repro.sqlengine.engine import RecoveryReport
from repro.sqlengine.exec.executor import QueryResult, ResultColumn
from repro.sqlengine.rotation import RotationStatus
from repro.sqlengine.server import CekMetadata, DescribeResult, ParameterDescription
from repro.sqlengine.storage.heap import RowId
from repro.sqlengine.types import ColumnType, EncryptionInfo, EncryptionScheme, SqlType

# ------------------------------------------------------------------ metadata
# Shapes carried inside messages. Registration order only matters for
# readability; the codec addresses each by its id in ``opcodes.WIRE_IDS``.

register_enum(EncryptionScheme)
for _cls in (
    Ciphertext,
    RowId,
    SqlType,
    EncryptionInfo,
    ColumnType,
    ResultColumn,
    CekEncryptedValue,
    ColumnEncryptionKey,
    ColumnMasterKey,
    ParameterDescription,
    CekMetadata,
    DescribeResult,
    RsaPublicKey,
    HealthCertificate,
    EnclaveReport,
    SignedReport,
    AttestationInfo,
    SealedPackage,
    RecoveryReport,
    RotationStatus,
):
    register_struct(_cls)

# stats is a volatile server-side attachment (QueryStats holds live
# references into the metrics registry) — it never crosses the wire.
register_struct(QueryResult, ("columns", "rows", "rowcount", "plan_info"))

# Immutable metadata, coded once per distinct value: never a shape holding
# bytes, containers or mutable objects (Ciphertext, CekMetadata).
memoize_structs(SqlType, EncryptionInfo, ColumnType, ResultColumn, ParameterDescription)


# ------------------------------------------------------------------ messages

MESSAGE_TYPES: dict[str, type] = {}
_OPCODE_OF: dict[type, int] = {}


def _message(cls: type) -> type:
    """Register a message dataclass under its ``OP`` opcode name."""
    op = cls.OP  # type: ignore[attr-defined]
    if op in MESSAGE_TYPES:
        raise AssertionError(f"duplicate message class for opcode {op!r}")
    MESSAGE_TYPES[op] = cls
    _OPCODE_OF[cls] = opcode_byte(op)  # KeyError if the opcode registry lacks it
    register_struct(cls)
    return cls


# -- handshake


@_message
@dataclass
class Hello:
    """First frame on every connection.

    ``affinity`` is the client's home-warehouse hint: the router pins the
    connection's control plane (describe/attest/CEK forwarding — and with
    it the enclave session) to the shard owning that warehouse.
    """

    OP = "hello"
    affinity: int | None = None


@_message
@dataclass
class HelloReply:
    OP = "hello_reply"
    protocol_version: int
    server_name: str
    shard_count: int
    #: HGS attestation-service signing key, or None for enclave-less servers.
    hgs_public: RsaPublicKey | None = None


@_message
@dataclass
class Ok:
    OP = "ok"


@_message
@dataclass
class ErrorReply:
    """Any server-side ReproError, marshalled by concrete type name."""

    OP = "error"
    error_type: str
    message: str
    #: Post-error transaction state of the session (None for sessionless
    #: control-plane errors) so the client mirror stays exact.
    in_transaction: bool | None = None


@_message
@dataclass
class Ping:
    OP = "ping"


# -- control plane


@_message
@dataclass
class Describe:
    OP = "describe"
    query_text: str
    client_dh_public: int | None = None


@_message
@dataclass
class DescribeReply:
    OP = "describe_reply"
    result: DescribeResult


@_message
@dataclass
class Attest:
    OP = "attest"
    client_dh_public: int


@_message
@dataclass
class AttestReply:
    OP = "attest_reply"
    info: AttestationInfo


@_message
@dataclass
class CekFetch:
    OP = "cek_fetch"
    cek_name: str


@_message
@dataclass
class CekFetchReply:
    OP = "cek_fetch_reply"
    metadata: CekMetadata


@_message
@dataclass
class ForwardPackage:
    OP = "forward_package"
    enclave_session_id: int
    sealed: SealedPackage


# -- data plane


@_message
@dataclass
class SessionOpen:
    OP = "session_open"
    affinity: int | None = None


@_message
@dataclass
class SessionOpenReply:
    OP = "session_open_reply"
    session_id: int


@_message
@dataclass
class SessionClose:
    OP = "session_close"
    session_id: int


@_message
@dataclass
class Execute:
    OP = "execute"
    session_id: int
    query_text: str
    params: dict = field(default_factory=dict)


@_message
@dataclass
class ExecuteReply:
    OP = "execute_reply"
    result: QueryResult
    in_transaction: bool = False


# -- two-phase commit (router → shard)


@_message
@dataclass
class TxnPrepare:
    OP = "txn_prepare"
    session_id: int
    gtid: str


@_message
@dataclass
class TxnCommitPrepared:
    OP = "txn_commit_prepared"
    gtid: str


@_message
@dataclass
class TxnAbortPrepared:
    OP = "txn_abort_prepared"
    gtid: str


@_message
@dataclass
class TxnIndoubt:
    OP = "txn_indoubt"


@_message
@dataclass
class TxnIndoubtReply:
    OP = "txn_indoubt_reply"
    gtids: list[str] = field(default_factory=list)


# -- administration (harness / torture)


@_message
@dataclass
class AdminAudit:
    OP = "admin_audit"


@_message
@dataclass
class AdminAuditReply:
    OP = "admin_audit_reply"
    violations: list[str] = field(default_factory=list)


@_message
@dataclass
class AdminCrash:
    OP = "admin_crash"


@_message
@dataclass
class AdminRecover:
    OP = "admin_recover"


@_message
@dataclass
class AdminRecoverReply:
    OP = "admin_recover_reply"
    report: RecoveryReport


@_message
@dataclass
class AdminShutdown:
    OP = "admin_shutdown"


# -- online key lifecycle (rotation driven over the wire)


@_message
@dataclass
class AdminRotateStart:
    """Start (or, with ``resume_id``, re-adopt after a crash) a lifecycle
    job. ``query_text`` must already be authorized through the session's
    sealed CEK package — the server only relays it; the enclave enforces."""

    OP = "admin_rotate_start"
    table: str
    column: str
    new_cek: str
    query_text: str
    batch_size: int = 64
    kind: str = "rotate"
    scheme: EncryptionScheme | None = None
    resume_id: str = ""


@_message
@dataclass
class AdminRotateStep:
    OP = "admin_rotate_step"
    rotation_id: str
    max_batches: int = 1


@_message
@dataclass
class AdminRotateStepReply:
    OP = "admin_rotate_step_reply"
    rotation_id: str = ""
    more: bool = True
    rows_rotated: int = 0


@_message
@dataclass
class AdminRotateStatus:
    OP = "admin_rotate_status"


@_message
@dataclass
class AdminRotateStatusReply:
    OP = "admin_rotate_status_reply"
    statuses: list[RotationStatus] = field(default_factory=list)


@_message
@dataclass
class AdminCekVersions:
    OP = "admin_cek_versions"


@_message
@dataclass
class AdminCekVersionsReply:
    OP = "admin_cek_versions_reply"
    versions: dict[str, int] = field(default_factory=dict)


if set(MESSAGE_TYPES) != set(OPCODES):
    raise AssertionError(
        f"opcodes without a message class: {sorted(set(OPCODES) - set(MESSAGE_TYPES))}"
    )


# ------------------------------------------------------------------ verbs

#: The server verbs one method call answers: request type → (``SqlServer``
#: method, reply type, reply field). The request's fields are the method's
#: arguments, in order; the reply field carries its result (``None``: the
#: reply is :class:`Ok`; a tuple: the result is unpacked into those fields).
#: ``RemoteServer`` builds its stub methods from this table and the wire
#: server answers from it, so a verb is declared here and nowhere else. A
#: request with a trailing field its method does not take
#: (``AdminRotateStart.resume_id``) is answered by hand, not by :func:`answer`.
VERBS: dict[type, tuple[str, type, str | tuple[str, ...] | None]] = {
    Describe: ("describe_parameter_encryption", DescribeReply, "result"),
    Attest: ("attest", AttestReply, "info"),
    CekFetch: ("fetch_cek_metadata", CekFetchReply, "metadata"),
    ForwardPackage: ("forward_enclave_package", Ok, None),
    TxnCommitPrepared: ("commit_prepared", Ok, None),
    TxnAbortPrepared: ("abort_prepared", Ok, None),
    TxnIndoubt: ("indoubt_gtids", TxnIndoubtReply, "gtids"),
    AdminAudit: ("audit", AdminAuditReply, "violations"),
    AdminCrash: ("crash", Ok, None),
    AdminRecover: ("recover", AdminRecoverReply, "report"),
    AdminRotateStart: ("rotate_start", AdminRotateStepReply, "rotation_id"),
    AdminRotateStep: ("rotate_step", AdminRotateStepReply, ("more", "rows_rotated")),
    AdminRotateStatus: ("rotation_states", AdminRotateStatusReply, "statuses"),
    AdminCekVersions: ("cek_versions", AdminCekVersionsReply, "versions"),
}

_ARGUMENTS = {cls: tuple(f.name for f in fields(cls)) for cls in VERBS}


def answer(server: Any, request: Any) -> Any:
    """Answer ``request`` by its :data:`VERBS` row: one call on ``server``."""
    row = VERBS.get(type(request))
    if row is None:
        raise WireError(f"unhandled message type {type(request).__name__!r}")
    method, reply_type, reply_field = row
    result = getattr(server, method)(
        *[getattr(request, name) for name in _ARGUMENTS[type(request)]]
    )
    if reply_field is None:
        return reply_type()
    if isinstance(reply_field, tuple):
        return reply_type(**dict(zip(reply_field, result)))
    return reply_type(**{reply_field: result})


#: The catalogue is the export list: every message class, then the functions.
__all__ = [
    *(cls.__name__ for cls in MESSAGE_TYPES.values()),
    "MESSAGE_TYPES",
    "NONRECONSTRUCTIBLE_ERRORS",
    "VERBS",
    "answer",
    "decode_message",
    "encode_message",
    "error_reply_for",
    "reconstruct_error",
]


# ------------------------------------------------------------------ codec


def encode_message(msg: Any) -> bytes:
    """Serialize a message to one complete frame."""
    return encode_frame(_OPCODE_OF[type(msg)], encode_value(msg))


def decode_message(opcode: int, payload: bytes) -> Any:
    """Decode a frame's payload back into its message dataclass."""
    msg = decode_value(payload)
    if _OPCODE_OF.get(type(msg)) != opcode:
        raise UnknownOpcodeError(
            f"frame opcode 0x{opcode:02X} does not match payload type {type(msg).__name__!r}"
        )
    return msg


# ------------------------------------------------------------------ errors

#: ReproError subclasses whose constructors cannot be rebuilt from a bare
#: message string by :func:`reconstruct_error` — these degrade to
#: :class:`~repro.errors.RemoteError` on the client, and that degradation
#: is acknowledged here. Append-only: the wire tests fail if an error
#: subclass that cannot be rebuilt faithfully is missing from this tuple
#: (silent degradation), and they pin its contents (rot).
NONRECONSTRUCTIBLE_ERRORS: tuple[str, ...] = ("RemoteError",)


def error_reply_for(exc: BaseException, in_transaction: bool | None = None) -> ErrorReply:
    """Marshal a server-side exception by concrete type name.

    A :class:`RemoteError` is an error some *other* server already
    marshalled (a shard's, relayed by the router): it keeps the origin's
    type name, so a second hop degrades nothing further.
    """
    error_type, message = type(exc).__name__, str(exc)
    if isinstance(exc, RemoteError):
        error_type, message = exc.error_type, exc.remote_message
    return ErrorReply(
        error_type=error_type, message=message, in_transaction=in_transaction
    )


def reconstruct_error(reply: ErrorReply) -> ReproError:
    """Client side: rebuild the typed exception from an :class:`ErrorReply`.

    Classes that cannot be rebuilt faithfully from a bare message string
    define a ``from_wire`` classmethod (fault-injection types recover
    their site argument there). Anything else falls back to
    :class:`~repro.errors.RemoteError`: an unknown name, a non-ReproError
    type, or a constructor that rejects a single message.
    """
    cls = getattr(_errors, reply.error_type, None)
    if isinstance(cls, type) and issubclass(cls, ReproError):
        rebuild = getattr(cls, "from_wire", None)
        if rebuild is not None:
            return rebuild(reply.message)
        try:
            return cls(reply.message)
        except TypeError:
            pass
    return RemoteError(reply.error_type, reply.message)
