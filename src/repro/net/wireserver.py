"""The socket server exposing one :class:`SqlServer` over the wire.

The serving loop — accept thread, per-connection request loop, typed
error marshalling, connection-loss session clean-up — is the shared
:class:`~repro.net.frameserver.FrameServer`; this module is what *one
engine* answers to each message. A request one ``SqlServer`` method
answers is answered by its :data:`~repro.net.messages.VERBS` row; the
arms here are the requests that need sessions or more than one call.

The ``audit_hook`` is the shard harness's seam: an ``AdminAudit`` frame
runs it (e.g. TPC-C invariants + index-consistency checks over a local
plain connection) and returns the violation strings. Without a hook the
frame runs the server's own physical audit (``SqlServer.audit``).
"""

from __future__ import annotations

from typing import Callable

from repro.net import messages as msg
from repro.net.frameserver import Dispatch, FrameServer, Relay
from repro.net.transport import FrameTap
from repro.sqlengine.server import ServerSession, SqlServer

__all__ = ["WireServer"]


class WireServer(FrameServer):
    """Serve one :class:`SqlServer` on a TCP port."""

    _thread_prefix = "wire"

    def __init__(
        self,
        server: SqlServer,
        host: str = "127.0.0.1",
        port: int = 0,
        name: str = "shard",
        shard_count: int = 1,
        audit_hook: Callable[[], list[str]] | None = None,
        tap: FrameTap | None = None,
    ):
        super().__init__(host, port, name, tap)
        self.server = server
        self.shard_count = shard_count
        self.audit_hook = audit_hook

    def _handshake(self, hello: msg.Hello) -> tuple[msg.HelloReply, Dispatch, Relay | None]:
        hgs = self.server.hgs
        hgs_public = None if hgs is None else hgs.signing_public_key
        return self._hello_reply(self.shard_count, hgs_public), self._dispatch, None

    # --------------------------------------------------------------- dispatch

    def _dispatch(self, request: object, sessions: dict[int, ServerSession]) -> object:
        server = self.server
        if isinstance(request, msg.Execute):
            session = self._session(sessions, request.session_id)
            result = session.execute(request.query_text, request.params)
            return msg.ExecuteReply(result=result, in_transaction=session.in_transaction)
        if isinstance(request, msg.SessionOpen):
            session = server.connect()
            sessions[session.session_id] = session
            return msg.SessionOpenReply(session_id=session.session_id)
        if isinstance(request, msg.TxnPrepare):
            self._session(sessions, request.session_id).prepare_transaction(request.gtid)
            return msg.Ok()
        if isinstance(request, msg.AdminAudit) and self.audit_hook is not None:
            return msg.AdminAuditReply(violations=list(self.audit_hook()))
        if isinstance(request, msg.AdminCrash):
            # All volatile state dies with the "process": every session this
            # server handed out is gone, on this connection and others.
            server.crash()
            sessions.clear()
            return msg.Ok()
        if isinstance(request, msg.AdminRotateStart):
            if request.resume_id:
                rotation_id = server.rotate_resume(
                    request.resume_id, request.query_text, request.batch_size
                )
            else:
                rotation_id = server.rotate_start(
                    request.table, request.column, request.new_cek, request.query_text,
                    request.batch_size, request.kind, request.scheme,
                )
            return msg.AdminRotateStepReply(rotation_id=rotation_id)
        if isinstance(request, msg.AdminRotateStep):
            more, rows = server.rotate_step(request.rotation_id, request.max_batches)
            return msg.AdminRotateStepReply(
                rotation_id=request.rotation_id, more=more, rows_rotated=rows
            )
        return msg.answer(server, request)
