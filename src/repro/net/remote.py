"""Client-side stub: the driver's server surface over a socket.

:class:`RemoteServer` duck-types exactly what
:class:`repro.client.driver.Connection` expects of a server — ``connect``,
``describe_parameter_encryption``, ``attest``, ``fetch_cek_metadata``,
``forward_enclave_package``, ``hgs.signing_public_key``, and
``catalog.ceks()/cek()/table()`` — so the AE driver runs unchanged against
a remote process. Control-plane requests share one locked channel; each
:class:`RemoteSession` opens its own socket so statements on different
sessions never serialize behind each other.

Typed errors cross back intact: an :class:`ErrorReply` is reconstructed
into the concrete :class:`~repro.errors.ReproError` subclass
(:func:`repro.net.messages.reconstruct_error`), so quarantine refusals,
lock timeouts, and constraint violations behave exactly as in-process.
Socket-level failures (``ConnectionResetError``, ``TimeoutError``)
surface as-is — the driver's retry classifier treats them as transient
for idempotent control-plane operations.
"""

from __future__ import annotations

import threading

from repro.attestation.protocol import AttestationInfo
from repro.crypto.rsa import RsaPublicKey
from repro.enclave import SealedPackage
from repro.errors import VersionMismatchError, WireError
from repro.keys.cek import ColumnEncryptionKey
from repro.net import messages as msg
from repro.net.frames import PROTOCOL_VERSION
from repro.net.opcodes import opcode_byte
from repro.net.transport import FrameChannel, connect_channel
from repro.sqlengine.catalog import TableSchema
from repro.sqlengine.exec.executor import QueryResult
from repro.sqlengine.server import CekMetadata, DescribeResult

__all__ = ["RemoteCatalog", "RemoteHgs", "RemoteServer", "RemoteSession"]

_EXECUTE_REPLY_OP = opcode_byte("execute_reply")


class RemoteHgs:
    """The slice of HostGuardianService the driver reads: the signing key."""

    def __init__(self, signing_public_key: RsaPublicKey):
        self.signing_public_key = signing_public_key


class RemoteCatalog:
    """Catalog reads proxied over the control channel."""

    def __init__(self, server: "RemoteServer"):
        self._server = server

    def ceks(self) -> list[ColumnEncryptionKey]:
        reply = self._server._request(msg.CekList())
        return reply.ceks

    def cek(self, name: str) -> ColumnEncryptionKey:
        return self._server.fetch_cek_metadata(name).cek

    def table(self, name: str) -> TableSchema:
        reply = self._server._request(msg.TableInfo(table_name=name))
        return reply.schema


class RemoteServer:
    """A server reached over the wire; the driver's ``server`` argument.

    ``affinity`` is the client's home-warehouse hint, carried in every
    Hello so a router pins this client's control plane — and with it the
    enclave session its attestation creates — to the owning shard.
    """

    def __init__(
        self,
        host: str,
        port: int,
        affinity: int | None = None,
        timeout_s: float | None = 30.0,
    ):
        self.host = host
        self.port = port
        self.affinity = affinity
        self.timeout_s = timeout_s
        self._lock = threading.Lock()
        self._control = self._open_channel()
        self.hello: msg.HelloReply = self._handshake(self._control)
        self.hgs: RemoteHgs | None = (
            None if self.hello.hgs_public is None else RemoteHgs(self.hello.hgs_public)
        )
        self.catalog = RemoteCatalog(self)

    # ------------------------------------------------------------- plumbing

    def _open_channel(self) -> FrameChannel:
        return connect_channel(self.host, self.port, timeout_s=self.timeout_s)

    def _handshake(self, channel: FrameChannel) -> msg.HelloReply:
        reply = channel.request(msg.Hello(affinity=self.affinity))
        if isinstance(reply, msg.ErrorReply):
            raise msg.reconstruct_error(reply)
        if not isinstance(reply, msg.HelloReply):
            raise ConnectionResetError(f"unexpected handshake reply {type(reply).__name__}")
        if reply.protocol_version != PROTOCOL_VERSION:
            raise VersionMismatchError(
                f"server speaks protocol version {reply.protocol_version}, "
                f"this client speaks {PROTOCOL_VERSION}"
            )
        return reply

    def relay(self, frame: bytes) -> tuple[int, bytes, bytes]:
        """One control-plane round trip of raw frames: an encoded request
        in, the reply's ``(opcode, payload, frame_bytes)`` out, undecoded
        (the router hands ``frame_bytes`` to its own peer verbatim).

        On a socket-level failure the channel is dead, but every message
        routed through here is an idempotent control-plane operation — so
        we heal (reopen + re-handshake) before re-raising, and the
        driver's backoff classifier, which treats ``ConnectionError`` and
        ``TimeoutError`` as transient, retries onto the fresh channel.
        """
        with self._lock:
            try:
                return self._control.request_raw(frame)
            except (ConnectionError, TimeoutError, OSError) as exc:
                try:
                    self._control.close()
                    self._control = self._open_channel()
                    self._handshake(self._control)
                except Exception:
                    pass  # server gone: the retry will fail loudly instead
                raise exc

    def _request(self, message: object) -> object:
        """One control-plane round trip; reconstructs typed errors."""
        opcode, payload, _frame = self.relay(msg.encode_message(message))
        reply = msg.decode_message(opcode, payload)
        if isinstance(reply, msg.ErrorReply):
            raise msg.reconstruct_error(reply)
        return reply

    def close(self) -> None:
        self._control.close()

    # ------------------------------------------------- driver server surface

    def connect(self) -> "RemoteSession":
        channel = self._open_channel()
        self._handshake(channel)
        reply = channel.request(msg.SessionOpen(affinity=self.affinity))
        if isinstance(reply, msg.ErrorReply):
            channel.close()
            raise msg.reconstruct_error(reply)
        return RemoteSession(self, channel, reply.session_id)

    def describe_parameter_encryption(
        self, query_text: str, client_dh_public: int | None = None
    ) -> DescribeResult:
        reply = self._request(
            msg.Describe(query_text=query_text, client_dh_public=client_dh_public)
        )
        return reply.result

    def attest(self, client_dh_public: int) -> AttestationInfo:
        return self._request(msg.Attest(client_dh_public=client_dh_public)).info

    def fetch_cek_metadata(self, cek_name: str) -> CekMetadata:
        return self._request(msg.CekFetch(cek_name=cek_name)).metadata

    def forward_enclave_package(self, enclave_session_id: int, sealed: SealedPackage) -> None:
        self._request(
            msg.ForwardPackage(enclave_session_id=enclave_session_id, sealed=sealed)
        )

    # ------------------------------------------------------ admin (harness)

    def ping(self) -> bool:
        return isinstance(self._request(msg.Ping()), msg.Ok)

    def audit(self) -> list[str]:
        return self._request(msg.AdminAudit()).violations

    def crash(self) -> None:
        self._request(msg.AdminCrash())

    def recover(self):
        return self._request(msg.AdminRecover()).report

    def commit_prepared(self, gtid: str) -> None:
        self._request(msg.TxnCommitPrepared(gtid=gtid))

    def abort_prepared(self, gtid: str) -> None:
        self._request(msg.TxnAbortPrepared(gtid=gtid))

    def indoubt_gtids(self) -> list[str]:
        return self._request(msg.TxnIndoubt()).gtids

    # ------------------------------------------------ online key lifecycle

    def rotate_start(
        self,
        table: str,
        column: str,
        new_cek: str,
        query_text: str,
        batch_size: int = 64,
        kind: str = "rotate",
        scheme=None,
    ) -> str:
        """Start an online lifecycle job on the server; returns its id."""
        reply = self._request(
            msg.AdminRotateStart(
                table=table,
                column=column,
                new_cek=new_cek,
                query_text=query_text,
                batch_size=batch_size,
                kind=kind,
                scheme=scheme,
            )
        )
        return reply.rotation_id

    def rotate_resume(
        self, rotation_id: str, query_text: str, batch_size: int = 64
    ) -> str:
        """Re-adopt a recovery-reinstated rotation (post-crash)."""
        reply = self._request(
            msg.AdminRotateStart(
                query_text=query_text,
                batch_size=batch_size,
                resume_id=rotation_id,
            )
        )
        return reply.rotation_id

    def rotate_step(self, rotation_id: str, max_batches: int = 1) -> tuple[bool, int]:
        reply = self._request(
            msg.AdminRotateStep(rotation_id=rotation_id, max_batches=max_batches)
        )
        return reply.more, reply.rows_rotated

    def rotate_run(self, rotation_id: str) -> int:
        """Drive a rotation to completion over the wire, batch by batch."""
        total = 0
        more = True
        while more:
            more, rows = self.rotate_step(rotation_id)
            total += rows
        return total

    def rotation_states(self) -> list:
        return self._request(msg.AdminRotateStatus()).statuses

    def cek_versions(self) -> dict[str, int]:
        return self._request(msg.AdminCekVersions()).versions

    def shutdown(self) -> None:
        try:
            self._request(msg.AdminShutdown())
        except (ConnectionError, OSError):
            pass  # server dropped the connection while stopping: expected
        self.close()


class RemoteSession:
    """One server session over its own socket (the driver's ``session``)."""

    def __init__(self, server: RemoteServer, channel: FrameChannel, session_id: int):
        self._server = server
        self._channel = channel
        self.session_id = session_id
        self._in_transaction = False
        self._closed = False

    @property
    def in_transaction(self) -> bool:
        return self._in_transaction

    def _raise(self, reply: object) -> None:
        """Raise the typed error an Execute came back as, its transaction state mirrored."""
        if not isinstance(reply, msg.ErrorReply):
            raise WireError(f"unexpected reply {type(reply).__name__!r} to an execute")
        if reply.in_transaction is not None:
            self._in_transaction = reply.in_transaction
        raise msg.reconstruct_error(reply)

    def _send_execute(self, query_text: str, params: dict) -> tuple[int, bytes, bytes]:
        request = msg.Execute(session_id=self.session_id, query_text=query_text, params=params)
        return self._channel.request_raw(msg.encode_message(request))

    def execute(self, query_text: str, params: dict | None = None) -> QueryResult:
        opcode, payload, _frame = self._send_execute(query_text, params or {})
        reply = msg.decode_message(opcode, payload)
        if not isinstance(reply, msg.ExecuteReply):
            self._raise(reply)
        self._in_transaction = reply.in_transaction
        return reply.result

    def execute_raw(self, query_text: str, params: dict) -> bytes:
        """One execute round trip returning the raw ``execute_reply`` frame.

        The router's forwarding fast path: the reply payload — dominated
        by result rows on reads — is *not* decoded here; the caller
        forwards the frame verbatim to its own peer. Only an error reply
        is decoded, and raised exactly as :meth:`execute` raises it.
        ``_in_transaction`` is deliberately untouched on success: a DML
        statement never changes the branch's transaction state.
        """
        opcode, payload, frame = self._send_execute(query_text, params)
        if opcode != _EXECUTE_REPLY_OP:
            self._raise(msg.decode_message(opcode, payload))
        return frame

    def prepare_transaction(self, gtid: str) -> None:
        reply = self._channel.request(
            msg.TxnPrepare(session_id=self.session_id, gtid=gtid)
        )
        if isinstance(reply, msg.ErrorReply):
            raise msg.reconstruct_error(reply)
        self._in_transaction = False

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._channel.request(msg.SessionClose(session_id=self.session_id))
        except (ConnectionError, OSError):
            pass  # server already gone; its connection teardown closed us
        self._channel.close()
        self._in_transaction = False
