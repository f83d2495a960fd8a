"""The socket server exposing one :class:`SqlServer` over the wire.

The serving loop — accept thread, per-connection request loop, typed
error marshalling, connection-loss session clean-up — is the shared
:class:`~repro.net.frameserver.FrameServer`; this module is what *one
engine* answers to each message.

The ``audit_hook`` is the shard harness's seam: an ``AdminAudit`` frame
runs it (e.g. TPC-C invariants + index-consistency checks over a local
plain connection) and returns the violation strings.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import WireError
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
        if isinstance(request, msg.Ping):
            return msg.Ok()
        if isinstance(request, msg.Describe):
            return msg.DescribeReply(
                result=server.describe_parameter_encryption(
                    request.query_text, request.client_dh_public
                )
            )
        if isinstance(request, msg.Attest):
            return msg.AttestReply(info=server.attest(request.client_dh_public))
        if isinstance(request, msg.CekFetch):
            return msg.CekFetchReply(metadata=server.fetch_cek_metadata(request.cek_name))
        if isinstance(request, msg.CekList):
            return msg.CekListReply(ceks=server.catalog.ceks())
        if isinstance(request, msg.TableInfo):
            return msg.TableInfoReply(schema=server.catalog.table(request.table_name))
        if isinstance(request, msg.ForwardPackage):
            server.forward_enclave_package(request.enclave_session_id, request.sealed)
            return msg.Ok()
        if isinstance(request, msg.SessionOpen):
            session = server.connect()
            sessions[session.session_id] = session
            return msg.SessionOpenReply(session_id=session.session_id)
        if isinstance(request, msg.SessionClose):
            session = sessions.pop(request.session_id, None)
            if session is not None:
                session.close()
            return msg.Ok()
        if isinstance(request, msg.Execute):
            session = self._session(sessions, request.session_id)
            result = session.execute(request.query_text, request.params)
            return msg.ExecuteReply(result=result, in_transaction=session.in_transaction)
        if isinstance(request, msg.TxnPrepare):
            self._session(sessions, request.session_id).prepare_transaction(request.gtid)
            return msg.Ok()
        if isinstance(request, msg.TxnCommitPrepared):
            server.commit_prepared(request.gtid)
            return msg.Ok()
        if isinstance(request, msg.TxnAbortPrepared):
            server.abort_prepared(request.gtid)
            return msg.Ok()
        if isinstance(request, msg.TxnIndoubt):
            return msg.TxnIndoubtReply(gtids=server.indoubt_gtids())
        if isinstance(request, msg.AdminAudit):
            violations = [] if self.audit_hook is None else list(self.audit_hook())
            return msg.AdminAuditReply(violations=violations)
        if isinstance(request, msg.AdminCrash):
            # All volatile state dies with the "process": every session this
            # server handed out is gone, on this connection and others.
            server.crash()
            sessions.clear()
            return msg.Ok()
        if isinstance(request, msg.AdminRecover):
            return msg.AdminRecoverReply(report=server.recover())
        if isinstance(request, msg.AdminRotateStart):
            if request.resume_id:
                rotation_id = server.rotate_resume(
                    request.resume_id, request.query_text, request.batch_size
                )
            else:
                rotation_id = server.rotate_start(
                    request.table,
                    request.column,
                    request.new_cek,
                    request.query_text,
                    batch_size=request.batch_size,
                    kind=request.kind,
                    scheme=request.scheme,
                )
            return msg.AdminRotateStepReply(
                rotation_id=rotation_id, more=True, rows_rotated=0
            )
        if isinstance(request, msg.AdminRotateStep):
            more, rows = server.rotate_step(request.rotation_id, request.max_batches)
            return msg.AdminRotateStepReply(
                rotation_id=request.rotation_id, more=more, rows_rotated=rows
            )
        if isinstance(request, msg.AdminRotateStatus):
            return msg.AdminRotateStatusReply(statuses=server.rotation_states())
        if isinstance(request, msg.AdminCekVersions):
            return msg.AdminCekVersionsReply(versions=server.cek_versions())
        raise WireError(f"unhandled message type {type(request).__name__!r}")
