"""Client-side stub: the driver's server surface over a socket.

:class:`RemoteServer` duck-types exactly what
:class:`repro.client.driver.Connection` and the key tools expect of a
server — ``connect``, ``describe_parameter_encryption``, ``attest``,
``fetch_cek_metadata``, ``forward_enclave_package``,
``hgs.signing_public_key``, ``rotation_states`` and the rotation admin
verbs — so the AE driver runs unchanged against a remote process. It has
no catalog: what a statement needs of the server's metadata, DDL
included, comes back in its describe. A verb one server method answers
is one class-body line, ``attest = _verb(msg.Attest)``, built from its
row of :data:`repro.net.messages.VERBS`. Control-plane requests share one
locked channel; each :class:`RemoteSession` opens its own socket so
statements on different sessions never serialize behind each other.

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

from repro.crypto.rsa import RsaPublicKey
from repro.errors import VersionMismatchError, WireError
from repro.net import messages as msg
from repro.net.frames import PROTOCOL_VERSION
from repro.net.opcodes import opcode_byte
from repro.net.transport import FrameChannel, connect_channel
from repro.sqlengine.exec.executor import QueryResult

__all__ = ["RemoteHgs", "RemoteServer", "RemoteSession"]

_EXECUTE_REPLY_OP = opcode_byte("execute_reply")


class RemoteHgs:
    """The slice of HostGuardianService the driver reads: the signing key."""

    def __init__(self, signing_public_key: RsaPublicKey):
        self.signing_public_key = signing_public_key


def _verb(request_type: type):
    """The stub method for one :data:`~repro.net.messages.VERBS` row: its
    arguments become the request's fields, the reply field its result."""
    method, _reply_type, reply_field = msg.VERBS[request_type]

    def call(self, *args, **kwargs):
        reply = self._request(request_type(*args, **kwargs))
        if reply_field is None:
            return None
        if isinstance(reply_field, tuple):
            return tuple(getattr(reply, name) for name in reply_field)
        return getattr(reply, reply_field)

    call.__name__ = method
    return call


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

        A failed exchange closes the channel, but every message routed
        through here is an idempotent control-plane operation — so we heal
        (reopen + re-handshake) before re-raising, and the driver's backoff
        classifier, which treats ``ConnectionError`` and ``TimeoutError``
        as transient, retries onto the fresh channel.
        """
        with self._lock:
            try:
                return self._control.request_raw(frame)
            except Exception:
                try:
                    self._control = self._open_channel()
                    self._handshake(self._control)
                except Exception:
                    pass  # server gone: the retry will fail loudly instead
                raise

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

    describe_parameter_encryption = _verb(msg.Describe)
    attest = _verb(msg.Attest)
    fetch_cek_metadata = _verb(msg.CekFetch)
    forward_enclave_package = _verb(msg.ForwardPackage)

    # ------------------------------------------------------ admin (harness)

    def ping(self) -> bool:
        return isinstance(self._request(msg.Ping()), msg.Ok)

    audit = _verb(msg.AdminAudit)
    crash = _verb(msg.AdminCrash)
    recover = _verb(msg.AdminRecover)
    commit_prepared = _verb(msg.TxnCommitPrepared)
    abort_prepared = _verb(msg.TxnAbortPrepared)
    indoubt_gtids = _verb(msg.TxnIndoubt)

    # ------------------------------------------------ online key lifecycle

    rotate_start = _verb(msg.AdminRotateStart)
    rotate_step = _verb(msg.AdminRotateStep)
    rotation_states = _verb(msg.AdminRotateStatus)
    cek_versions = _verb(msg.AdminCekVersions)

    def rotate_resume(
        self, rotation_id: str, query_text: str, batch_size: int = 64
    ) -> str:
        """Re-adopt a recovery-reinstated rotation (post-crash): a start
        whose ``resume_id`` names the job instead of a column."""
        return self.rotate_start("", "", "", query_text, batch_size, resume_id=rotation_id)

    def rotate_run(self, rotation_id: str) -> int:
        """Drive a rotation to completion over the wire, batch by batch."""
        total = 0
        more = True
        while more:
            more, rows = self.rotate_step(rotation_id)
            total += rows
        return total

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
        return self._in_transaction and not self.lost

    @property
    def lost(self) -> bool:
        """A failed exchange closed the channel: the server aborts the session."""
        return self._channel.closed

    def _raise(self, reply: object) -> None:
        """Raise the typed error an Execute came back as, its transaction state mirrored."""
        if not isinstance(reply, msg.ErrorReply):
            raise WireError(f"unexpected reply {type(reply).__name__!r} to an execute")
        if reply.in_transaction is not None:
            self._in_transaction = reply.in_transaction
        raise msg.reconstruct_error(reply)

    def execute(self, query_text: str, params: dict | None = None) -> QueryResult:
        request = msg.Execute(self.session_id, query_text, params or {})
        opcode, payload, _frame = self._channel.request_raw(msg.encode_message(request))
        reply = msg.decode_message(opcode, payload)
        if not isinstance(reply, msg.ExecuteReply):
            self._raise(reply)
        self._in_transaction = reply.in_transaction
        return reply.result

    def execute_raw(self, frame: bytes) -> bytes:
        """One round trip of a client's ``Execute`` frame, readdressed to this
        session (:func:`~repro.net.messages.readdress`); the raw reply frame.

        The router's forwarding fast path: the reply payload — dominated
        by result rows on reads — is *not* decoded here; the caller
        forwards the frame verbatim to its own peer. Only an error reply
        is decoded, and raised exactly as :meth:`execute` raises it.
        ``_in_transaction`` is deliberately untouched on success: a DML
        statement never changes the branch's transaction state.
        """
        request = msg.readdress(frame, self.session_id)
        opcode, payload, reply = self._channel.request_raw(request)
        if opcode != _EXECUTE_REPLY_OP:
            self._raise(msg.decode_message(opcode, payload))
        return reply

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
