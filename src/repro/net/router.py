"""The stateless shard router: one wire endpoint over N engine processes.

The router speaks the same framed protocol as :class:`WireServer` on its
front side and is a plain wire *client* of every shard on its back side,
so the AE driver cannot tell a sharded deployment from a single server.
Partitioning is by warehouse: ``shard_of(w) = (w - 1) % n_shards``, read
from the ``@w`` parameter every TPC-C statement carries.

Routing rules (in order):

* ``BEGIN`` / ``COMMIT`` / ``ROLLBACK`` — handled by the router itself;
  ``BEGIN`` is **lazy** (no shard sees it until a statement routes there).
* DDL (``CREATE``/``DROP``/``ALTER``) — broadcast to every shard, so the
  catalog (including ``CREATE COLUMN ENCRYPTION KEY``, whose DDL embeds
  the encrypted key bytes) is replicated identically.
* DML with a ``w`` parameter — routed to ``shard_of(params["w"])``.
* Keyless writes (the replicated ITEM table, loaded once) — broadcast.
* Keyless reads — the connection's *affinity shard*, derived from the
  client's home-warehouse hint in ``Hello``/``SessionOpen``.

The control plane (describe / attest / CEK fetch / enclave forwarding) is
pinned to the affinity shard: the enclave session the client's attestation
creates lives in exactly one shard process, and with home-warehouse
affinity every encrypted predicate the client sends routes there too.

Commit of a transaction that touched ≥ 2 shards runs **two-phase commit**
layered on each shard's WAL: prepare every participant (durable PREPARE
record, locks retained), make the commit decision durable in the router's
:class:`CommitDecisionLog`, then fan out ``commit_prepared``. The
protocol is *presumed abort*: a gtid absent from the decision log aborts
during :meth:`Router.resolve_indoubt`, so a coordinator crash between
prepare and decision loses nothing. A participant crash after the
decision is re-resolved from the log — the decision record, not the
fan-out, is the commit point.
"""

from __future__ import annotations

import itertools
import os
import threading
from functools import partial

from repro.errors import TransactionError, WireError
from repro.faults.registry import fault_site
from repro.net import messages as msg
from repro.net.frameserver import Dispatch, FrameServer, Relay
from repro.net.opcodes import opcode_byte
from repro.net.remote import RemoteServer, RemoteSession
from repro.net.transport import FrameTap
from repro.sqlengine.exec.executor import QueryResult

__all__ = ["CommitDecisionLog", "Router", "shard_of"]

_COMMIT_DECISION = fault_site("router.commit_decision")


def shard_of(warehouse: int, n_shards: int) -> int:
    """Hash-partition 1-based warehouse ids round-robin over shards."""
    return (int(warehouse) - 1) % n_shards


_DDL_KEYWORDS = frozenset({"CREATE", "DROP", "ALTER"})
_WRITE_KEYWORDS = frozenset({"INSERT", "UPDATE", "DELETE"})
_TXN_KEYWORDS = frozenset({"BEGIN", "COMMIT", "ROLLBACK"})


def _first_keyword(query_text: str) -> str:
    parts = query_text.lstrip().split(None, 1)
    return parts[0].upper() if parts else ""


class CommitDecisionLog:
    """Durable append-only record of *committed* gtids (presumed abort).

    With a path the log is a flat file of gtid lines, fsynced per append —
    the coordinator's equivalent of a WAL flush. Without one it is
    memory-only (fine for tests that never crash the coordinator).
    """

    def __init__(self, path: str | None = None):
        self.path = path
        self._lock = threading.Lock()
        self._gtids: set[str] = set()
        if path is not None and os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                self._gtids.update(line.strip() for line in fh if line.strip())

    def record(self, gtid: str) -> None:
        with self._lock:
            if gtid in self._gtids:
                return
            if self.path is not None:
                with open(self.path, "a", encoding="utf-8") as fh:
                    fh.write(gtid + "\n")
                    fh.flush()
                    os.fsync(fh.fileno())
            self._gtids.add(gtid)

    def __contains__(self, gtid: str) -> bool:
        with self._lock:
            return gtid in self._gtids

    def gtids(self) -> frozenset[str]:
        with self._lock:
            return frozenset(self._gtids)


class RouterSession:
    """One client session fanned out over per-shard backend sessions."""

    def __init__(self, router: "Router", session_id: int, affinity_shard: int):
        self.router = router
        self.session_id = session_id
        self.affinity_shard = affinity_shard
        self.backends: dict[int, RemoteSession] = {}
        self.in_transaction = False
        #: shards holding an open branch of the current client transaction.
        self.participants: set[int] = set()

    # ---------------------------------------------------------------- backends

    def _backend(self, shard_idx: int) -> RemoteSession:
        session = self.backends.get(shard_idx)
        if session is None or session.lost:
            session = self.router.shards[shard_idx].connect()
            self.backends[shard_idx] = session
        return session

    def _enlist(self, shard_idx: int) -> RemoteSession:
        """Route a statement to a shard; open its transaction branch lazily."""
        backend = self._backend(shard_idx)
        if self.in_transaction and shard_idx not in self.participants:
            backend.execute("BEGIN TRANSACTION")
            self.participants.add(shard_idx)
        return backend

    # ----------------------------------------------------------------- execute

    def _route(self, keyword: str, params: dict) -> int | None:
        """The one shard a statement goes to; None broadcasts it."""
        if keyword in _DDL_KEYWORDS:
            return None  # the catalog is replicated
        if "w" in params:
            return shard_of(params["w"], self.router.n_shards)
        if keyword in _WRITE_KEYWORDS:
            return None  # keyless write: the replicated ITEM table
        return self.affinity_shard

    def execute(self, query_text: str, params: dict) -> QueryResult:
        keyword = _first_keyword(query_text)
        if keyword == "BEGIN":
            return self._begin()
        if keyword == "COMMIT":
            return self._commit()
        if keyword == "ROLLBACK":
            return self._rollback()
        shard_idx = self._route(keyword, params)
        if shard_idx is None:
            return self._execute_broadcast(query_text, params)
        return self._execute_on(shard_idx, query_text, params)

    def execute_fast(self, query_text: str, params: dict, frame: bytes) -> bytes | None:
        """Single-shard forwarding fast path: the raw reply frame, or None.

        The slow path decodes the shard's reply (rows and all) only to
        re-encode it byte-identically for the client. When a statement
        routes to exactly one shard, the client's own ``Execute`` ``frame``
        goes on with its session id rewritten, and the shard's reply frame
        comes back verbatim: its ``in_transaction`` flag is the branch's
        state, which on the success path always equals this
        session's state (a DML statement never opens or closes a
        transaction). ``None`` means the statement needs the slow path
        (transaction verbs, DDL/keyless-write broadcasts); an error reply
        raises through the same branch-abort path as :meth:`execute`.
        """
        keyword = _first_keyword(query_text)
        shard_idx = None if keyword in _TXN_KEYWORDS else self._route(keyword, params)
        if shard_idx is None:
            return None
        return self._execute_on(shard_idx, query_text, params, frame)

    def _execute_on(self, shard_idx: int, query_text: str, params: dict, frame=None):
        backend = self._enlist(shard_idx)
        try:
            if frame is not None:
                return backend.execute_raw(frame)
            return backend.execute(query_text, params)
        except Exception:
            if self.in_transaction and not backend.in_transaction:
                # The shard aborted its branch (deadlock victim, lock
                # timeout, lost connection): the distributed transaction
                # cannot commit. Roll the other branches back so no branch
                # half-commits.
                self.participants.discard(shard_idx)
                self._rollback_participants()
                self.in_transaction = False
            raise

    def _execute_broadcast(self, query_text: str, params: dict) -> QueryResult:
        result: QueryResult | None = None
        for shard_idx in range(self.router.n_shards):
            result = self._execute_on(shard_idx, query_text, params)
        assert result is not None
        return result

    # ------------------------------------------------------- transaction verbs

    def _begin(self) -> QueryResult:
        if self.in_transaction:
            raise TransactionError("transaction already in progress")
        self.in_transaction = True
        self.participants.clear()
        return QueryResult()

    def _rollback(self) -> QueryResult:
        if not self.in_transaction:
            raise TransactionError("no transaction in progress")
        self._rollback_participants()
        self.in_transaction = False
        return QueryResult()

    def _rollback_participants(self) -> None:
        for shard_idx in sorted(self.participants):
            backend = self.backends.get(shard_idx)
            if backend is None or not backend.in_transaction:
                continue
            try:
                backend.execute("ROLLBACK")
            except Exception:
                pass  # a crashed shard aborts the branch on its own
        self.participants.clear()

    def _commit(self) -> QueryResult:
        if not self.in_transaction:
            raise TransactionError("no transaction in progress")
        participants = sorted(self.participants)
        try:
            if len(participants) <= 1:
                for shard_idx in participants:
                    self.backends[shard_idx].execute("COMMIT")
            else:
                self.router.two_phase_commit(
                    {idx: self.backends[idx] for idx in participants}
                )
        finally:
            self.in_transaction = False
            self.participants.clear()
        return QueryResult()

    def close(self) -> None:
        if self.in_transaction:
            try:
                self._rollback_participants()
            finally:
                self.in_transaction = False
        for backend in self.backends.values():
            try:
                backend.close()
            except Exception:
                pass  # connection-loss close is best-effort by contract
        self.backends.clear()


class Router(FrameServer):
    """Front-side frame server + back-side client of every shard."""

    _thread_prefix = "router"

    def __init__(
        self,
        shard_addresses: list[tuple[str, int]],
        host: str = "127.0.0.1",
        port: int = 0,
        name: str = "router",
        decision_log: CommitDecisionLog | None = None,
        timeout_s: float | None = 30.0,
        tap: FrameTap | None = None,
    ):
        if not shard_addresses:
            raise ValueError("router needs at least one shard")
        self.shards: list[RemoteServer] = [
            RemoteServer(h, p, timeout_s=timeout_s) for (h, p) in shard_addresses
        ]
        self.n_shards = len(self.shards)
        self.decisions = decision_log or CommitDecisionLog()
        self._gtid_counter = itertools.count(1)
        self._session_ids = itertools.count(1)
        super().__init__(host, port, name, tap)

    def stop(self) -> None:
        super().stop()
        for shard in self.shards:
            shard.close()

    # ------------------------------------------------------------- 2PC engine

    def next_gtid(self) -> str:
        return f"{self.name}:{next(self._gtid_counter)}"

    def two_phase_commit(self, branches: dict[int, RemoteSession]) -> str:
        """Commit one transaction spanning ``branches`` (shard_idx → session).

        Phase 1 prepares every branch; any failure aborts all of them and
        re-raises. Phase 2 appends the gtid to the decision log — the
        commit point — then fans out ``commit_prepared``. Fan-out errors
        are swallowed: the decision is durable, so a crashed participant
        re-commits via :meth:`resolve_indoubt` after recovery.
        """
        gtid = self.next_gtid()
        prepared: list[int] = []
        try:
            for shard_idx in sorted(branches):
                branches[shard_idx].prepare_transaction(gtid)
                prepared.append(shard_idx)
            if _COMMIT_DECISION.armed:
                _COMMIT_DECISION.fire(gtid=gtid)
        except Exception:
            for shard_idx in sorted(branches):
                try:
                    if shard_idx in prepared:
                        self.shards[shard_idx].abort_prepared(gtid)
                    elif branches[shard_idx].in_transaction:
                        branches[shard_idx].execute("ROLLBACK")
                except Exception:
                    pass  # unreachable shard: presumed abort resolves it
            raise
        self.decisions.record(gtid)
        for shard_idx in sorted(branches):
            try:
                self.shards[shard_idx].commit_prepared(gtid)
            except Exception:
                pass  # decision is durable; resolve_indoubt finishes the job
        return gtid

    def resolve_indoubt(self) -> dict[str, str]:
        """Drive every shard's in-doubt gtids to an outcome (recovery).

        A gtid in the decision log commits; anything else is presumed
        abort. Returns ``{gtid: "commit" | "abort"}``.
        """
        outcomes: dict[str, str] = {}
        for shard in self.shards:
            for gtid in shard.indoubt_gtids():
                if gtid in self.decisions:
                    shard.commit_prepared(gtid)
                    outcomes[gtid] = "commit"
                else:
                    shard.abort_prepared(gtid)
                    outcomes[gtid] = "abort"
        return outcomes

    def audit(self) -> list[str]:
        violations: list[str] = []
        for idx, shard in enumerate(self.shards):
            violations.extend(f"shard{idx}: {v}" for v in shard.audit())
        return violations

    # ------------------------------------------------------------- connection

    def _affinity_shard(self, affinity: int | None) -> int:
        if affinity is None:
            return 0
        return shard_of(affinity, self.n_shards)

    def _handshake(self, hello: msg.Hello) -> tuple[msg.HelloReply, Dispatch, Relay | None]:
        affinity_shard = self._affinity_shard(hello.affinity)
        shard = self.shards[affinity_shard]
        reply = self._hello_reply(self.n_shards, shard.hello.hgs_public)
        return reply, partial(self._dispatch, affinity_shard=affinity_shard), shard.relay

    # --------------------------------------------------------------- dispatch

    #: the ``relayed`` verbs: raw frames to the affinity shard and back, never decoded here.
    _RELAYED = frozenset(opcode_byte(cls.OP) for cls, verb in msg.VERBS.items() if verb.relayed)

    def _dispatch(
        self,
        request: object,
        frame: bytes,
        sessions: dict[int, RouterSession],
        affinity_shard: int,
    ) -> object:
        if isinstance(request, msg.SessionOpen):
            shard_idx = (
                affinity_shard
                if request.affinity is None
                else self._affinity_shard(request.affinity)
            )
            session = RouterSession(self, next(self._session_ids), shard_idx)
            sessions[session.session_id] = session
            return msg.SessionOpenReply(session_id=session.session_id)
        if isinstance(request, msg.Execute):
            session = self._session(sessions, request.session_id)
            reply = session.execute_fast(request.query_text, request.params, frame)
            if reply is not None:
                return reply
            # None = slow path: nothing was sent to any shard yet.
            result = session.execute(request.query_text, request.params)
            return msg.ExecuteReply(result=result, in_transaction=session.in_transaction)
        if isinstance(request, msg.TxnIndoubt):
            gtids: list[str] = []
            for shard in self.shards:
                gtids.extend(g for g in shard.indoubt_gtids() if g not in gtids)
            return msg.TxnIndoubtReply(gtids=gtids)
        if isinstance(request, msg.AdminAudit):
            return msg.AdminAuditReply(violations=self.audit())
        raise WireError(f"message type {type(request).__name__!r} not valid at router")
