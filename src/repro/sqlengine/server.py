"""The (untrusted) SQL Server facade.

Implements the server-side surface the paper describes:

* ``sp_describe_parameter_encryption`` (Section 4.1) — parse + bind +
  encryption type deduction, returning per-parameter encryption types, the
  CEK/CMK metadata the driver needs, and — when the query needs the
  enclave — attestation information;
* query execution through the executor, with a plan cache holding each
  statement text's parse, the describe payload type deduction produced
  (Section 4.3) and its physical plan, valid at the schema version they
  were built at;
* DDL, including the enclave-mediated ``ALTER TABLE ALTER COLUMN`` paths
  for initial encryption, key rotation, and decryption (Sections 2.4.2,
  3.2) — all *online* and without any client round-trip per row;
* forwarding sealed CEK packages from driver to enclave (SQL is the
  untrusted man-in-the-middle), which also unblocks deferred transactions
  and pending index rebuilds, since "the client connects and sends keys".
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

from repro.attestation.hgs import HostGuardianService
from repro.attestation.protocol import AttestationInfo, server_attest
from repro.attestation.tpm import HostMachine
from repro.crypto.aead import ALGORITHM_NAME, EncryptionScheme
from repro.enclave import CallMode, Enclave, EnclaveCallGateway, SealedPackage
from repro.errors import (
    BindError,
    EnclaveError,
    ExecutionError,
    ServerBusyError,
    SqlError,
    StaleRestoreError,
    TransactionError,
)
from repro.keys.cek import CekEncryptedValue, ColumnEncryptionKey
from repro.obs.flightrec import record_event
from repro.obs.metrics import StatsView, get_registry
from repro.obs.querystats import QueryStats
from repro.obs.tracing import STATEMENT, TraceContext, get_tracer
from repro.keys.cmk import ColumnMasterKey
from repro.sqlengine.catalog import Catalog, ColumnSchema, IndexSchema, TableSchema
from repro.sqlengine.cells import Ciphertext
from repro.sqlengine.engine import StorageEngine
from repro.sqlengine.rotation import (
    InitialEncryptionJob,
    KeyLifecycleJob,
    KeyRotationJob,
    RotationDescriptor,
    RotationStatus,
    job_for_descriptor,
)
from repro.sqlengine.storage.freshness import FreshnessAnchor
from repro.sqlengine.exec.executor import Executor, QueryResult
from repro.sqlengine.exec.plan import PLANNED_STATEMENTS, Plan, build_plan
from repro.sqlengine.scheduler import StatementScheduler
from repro.sqlengine.scope import Scope
from repro.sqlengine.sqlparser import ast, parse
from repro.sqlengine.typededuce import deduce
from repro.sqlengine.types import ColumnType, SqlType
from repro.sqlengine.values import deserialize_value, serialize_value


#: The one message a quarantined server ever gives a query. Fixed text on
#: purpose: DET and RND deployments must refuse *identically*, so the
#: refusal channel itself leaks nothing about configuration or data.
QUARANTINE_MESSAGE = (
    "server quarantined: recovery detected a stale restore (freshness anchor "
    "mismatch); an operator must call accept_restored_state() to proceed"
)


@dataclass(frozen=True)
class ParameterDescription:
    """Encryption type info for one query parameter."""

    name: str
    column_type: ColumnType


@dataclass(frozen=True)
class CekMetadata:
    """CEK metadata as shipped to the driver: encrypted values + CMK info."""

    cek: ColumnEncryptionKey
    cmks: tuple[ColumnMasterKey, ...]


@dataclass
class DescribeResult:
    """Output of ``sp_describe_parameter_encryption``."""

    parameters: list[ParameterDescription]
    parameter_ceks: dict[str, CekMetadata]   # cek name → metadata
    enclave_ceks: list[CekMetadata]          # CEKs needed inside the enclave
    attestation: AttestationInfo | None = None

    @property
    def uses_enclave(self) -> bool:
        return bool(self.enclave_ceks)


#: Plan-cache capacity in statement texts; least recently used goes first.
PLAN_CACHE_CAPACITY = 1024


@dataclass(frozen=True)
class _CachedPlan:
    """Everything the server derives from one statement text, built once:
    valid while the catalog's schema version is still ``version``."""

    version: int
    stmt: ast.Statement
    physical: Plan | None                          # None: not a planned statement
    # The static part of sp_describe_parameter_encryption: what type
    # deduction (Section 4.3) found, with the key metadata looked up.
    parameters: tuple[ParameterDescription, ...] = ()
    parameter_ceks: tuple[tuple[str, CekMetadata], ...] = ()
    enclave_ceks: tuple[CekMetadata, ...] = ()


class ServerStats(StatsView):
    """Per-server view over the ``server.*`` registry counters."""

    FIELDS = {
        "plan_cache_hits": "server.plan_cache_hits",
        "plan_cache_misses": "server.plan_cache_misses",
        "describe_calls": "server.describe_calls",
        "statements_executed": "server.statements_executed",
    }


class SqlServer:
    """One SQL Server instance (the shaded, untrusted box of Figure 3)."""

    def __init__(
        self,
        enclave: Enclave | None = None,
        host_machine: HostMachine | None = None,
        hgs: HostGuardianService | None = None,
        ctr_enabled: bool = True,
        enclave_threads: int = 4,
        enclave_call_mode: CallMode = CallMode.QUEUED,
        lock_timeout_s: float = 2.0,
        allow_enclave_order_by: bool = False,
        eval_batch_size: int = 64,
        max_sessions: int | None = None,
        freshness: FreshnessAnchor | None = None,
    ):
        self.catalog = Catalog()
        self.enclave = enclave
        self.host_machine = host_machine
        self.hgs = hgs
        self.engine = StorageEngine(
            catalog=self.catalog,
            enclave=enclave,
            ctr_enabled=ctr_enabled,
            lock_timeout_s=lock_timeout_s,
            batch_index_probes=eval_batch_size > 1,
            freshness=freshness,
        )
        # Set when recovery detects a stale restore; every session refuses
        # queries with the fixed QUARANTINE_MESSAGE until an operator
        # explicitly accepts the restored state.
        self._quarantined = False
        self.gateway: EnclaveCallGateway | None = None
        if enclave is not None:
            self.gateway = EnclaveCallGateway(
                enclave, mode=enclave_call_mode, n_threads=enclave_threads
            )
        self.allow_enclave_order_by = allow_enclave_order_by
        self.eval_batch_size = eval_batch_size
        self.executor = Executor(
            self.engine,
            enclave_gateway=self.gateway,
            eval_batch_size=eval_batch_size,
        )
        self._plan_cache: OrderedDict[str, _CachedPlan] = OrderedDict()
        self._plan_lock = threading.Lock()
        self.stats = ServerStats()
        self._plan_cache_hits = self.stats.handle("plan_cache_hits")
        self._statements_executed = self.stats.handle("statements_executed")
        self._tracer = get_tracer()
        self._session_ids = itertools.count(1)
        # Process-wide statement ids: unique across sessions, so traces
        # and flight-recorder events never collide between clients.
        self._statement_ids = itertools.count(1)
        self.scheduler = StatementScheduler()
        self.max_sessions = max_sessions
        self._sessions_lock = threading.Lock()
        self._open_sessions: set[int] = set()
        # Online key-lifecycle jobs, keyed by rotation id. Jobs survive
        # here only as long as the process; after a crash the catalog's
        # reinstated rotation state is the source of truth and a client
        # re-adopts it through rotate_resume (re-authorizing the DDL text
        # first — enclave sessions do not survive crashes).
        self._rotation_jobs: dict[str, KeyLifecycleJob] = {}
        self._rotation_ids = itertools.count(1)
        self._rotation_lock = threading.Lock()
        self._sessions_gauge = get_registry().gauge(
            "server.sessions_open", help="client sessions currently connected"
        )

    # ------------------------------------------------------------- connections

    def connect(self) -> "ServerSession":
        session_id = next(self._session_ids)
        with self._sessions_lock:
            if (
                self.max_sessions is not None
                and len(self._open_sessions) >= self.max_sessions
            ):
                raise ServerBusyError(
                    f"server at max_sessions={self.max_sessions}; "
                    "close a session before connecting"
                )
            self._open_sessions.add(session_id)
            self._sessions_gauge.set(len(self._open_sessions))
        return ServerSession(self, session_id)

    def _release_session(self, session_id: int) -> None:
        with self._sessions_lock:
            self._open_sessions.discard(session_id)
            self._sessions_gauge.set(len(self._open_sessions))

    # ------------------------------------------------------------- plan cache

    def _plan(self, query_text: str) -> _CachedPlan:
        # Read the version before anything it covers: a plan built while a
        # schema change is in flight is tagged with the older version and
        # dies at the change's bump.
        version = self.catalog.schema_version
        with self._plan_lock:
            cached = self._plan_cache.get(query_text)
            if cached is not None and cached.version == version:
                self._plan_cache.move_to_end(query_text)
                self._plan_cache_hits.inc()
                return cached
        self.stats.inc("plan_cache_misses")
        # Compile outside the lock: it only reads the catalog, and concurrent
        # first executions of one text just race to insert equivalent plans.
        stmt = parse(query_text)
        if not isinstance(stmt, PLANNED_STATEMENTS):
            return _CachedPlan(version, stmt, None)
        deduction = deduce(
            stmt,
            Scope.for_statement(self.catalog, stmt),
            allow_enclave_order_by=self.allow_enclave_order_by,
        )
        parameters = tuple(
            ParameterDescription(name=name, column_type=column_type)
            for name, column_type in deduction.param_types.items()
        )
        parameter_ceks = {
            enc.cek_name: self._cek_metadata(enc.cek_name)
            for enc in (p.column_type.encryption for p in parameters)
            if enc is not None
        }
        cached = _CachedPlan(
            version=version,
            stmt=stmt,
            physical=build_plan(stmt, deduction, self.engine, self.allow_enclave_order_by),
            parameters=parameters,
            parameter_ceks=tuple(parameter_ceks.items()),
            enclave_ceks=tuple(
                self._cek_metadata(name) for name in sorted(deduction.enclave_ceks)
            ),
        )
        with self._plan_lock:
            self._plan_cache[query_text] = cached
            self._plan_cache.move_to_end(query_text)
            if len(self._plan_cache) > PLAN_CACHE_CAPACITY:
                self._plan_cache.popitem(last=False)
        return cached

    # ------------------------------------------- sp_describe_parameter_encryption

    def describe_parameter_encryption(
        self, query_text: str, client_dh_public: int | None = None
    ) -> DescribeResult:
        """The Section 4.1 API: per-parameter encryption types, CEK/CMK
        metadata, and attestation info when the enclave is involved."""
        self.stats.inc("describe_calls")
        plan = self._plan(query_text)
        attestation = None
        if plan.enclave_ceks and client_dh_public is not None:
            attestation = self.attest(client_dh_public)
        return DescribeResult(
            parameters=list(plan.parameters),
            parameter_ceks=dict(plan.parameter_ceks),
            enclave_ceks=list(plan.enclave_ceks),
            attestation=attestation,
        )

    def attest(self, client_dh_public: int) -> AttestationInfo:
        if self.enclave is None or self.host_machine is None or self.hgs is None:
            raise EnclaveError("this server has no enclave/attestation configured")
        return server_attest(self.host_machine, self.hgs, self.enclave, client_dh_public)

    def _cek_metadata(self, cek_name: str) -> CekMetadata:
        cek = self.catalog.cek(cek_name)
        cmks = tuple(self.catalog.cmk(name) for name in cek.cmk_names())
        return CekMetadata(cek=cek, cmks=cmks)

    def fetch_cek_metadata(self, cek_name: str) -> CekMetadata:
        """Driver-side helper for decrypting result columns."""
        return self._cek_metadata(cek_name)

    # --------------------------------------------------------- enclave forwarding

    def forward_enclave_package(self, enclave_session_id: int, sealed: SealedPackage) -> None:
        """Forward a driver's sealed CEK package to the enclave.

        SQL cannot read the package (it is encrypted under the attestation
        shared secret); it is purely a conduit. A client connecting with
        keys is also the event that unblocks deferred transactions and
        pending index rebuilds (Section 4.5).
        """
        if self.enclave is None:
            raise EnclaveError("no enclave configured")
        self.enclave.install_package(enclave_session_id, sealed)
        self.engine.resolve_deferred_transactions()

    # ------------------------------------------------------------------- recovery

    def crash(self) -> None:
        self.engine.crash()

    def recover(self):
        try:
            return self.engine.recover()
        except StaleRestoreError:
            self._quarantined = True
            raise

    @property
    def quarantined(self) -> bool:
        return self._quarantined

    def shutdown(self) -> None:
        """Stop the enclave workers and refuse every later statement.

        Without it every QUEUED gateway leaves ``enclave_threads`` daemon
        threads polling their queue for the life of the process.
        """
        if self.gateway is not None:
            self.gateway.shutdown()
        self.scheduler.shutdown()

    # ------------------------------------------------------- two-phase commit

    def commit_prepared(self, gtid: str) -> bool:
        """Apply a coordinator's commit decision to a prepared txn."""
        return self.engine.commit_prepared(gtid)

    def abort_prepared(self, gtid: str) -> bool:
        """Apply a coordinator's abort decision (presumed-abort safe)."""
        return self.engine.abort_prepared(gtid)

    def indoubt_gtids(self) -> list[str]:
        """Prepared transactions awaiting a coordinator decision."""
        return self.engine.indoubt_gtids()

    def accept_restored_state(self):
        """Operator override: make the restored state the trusted present.

        The one sanctioned way out of quarantine — re-seeds the anchor
        from the current durable state (so the restored snapshot becomes
        the new baseline), then re-runs recovery. Without an anchor this
        is just a recover()."""
        self._quarantined = False
        if self.engine.freshness is not None:
            self.engine.freshness.rebaseline()
        return self.recover()

    # ------------------------------------------------- online key lifecycle

    def rotate_start(
        self,
        table: str,
        column: str,
        new_cek: str,
        query_text: str,
        batch_size: int = 64,
        kind: str = "rotate",
        scheme: EncryptionScheme | None = None,
    ) -> str:
        """Start an online lifecycle job; returns its rotation id.

        ``query_text`` is the DDL text the client authorized through its
        sealed CEK package — the enclave refuses the per-batch recrypt
        without it, so starting a rotation is useless to an attacker who
        has only compromised the server.
        """
        if self._quarantined:
            raise StaleRestoreError(QUARANTINE_MESSAGE)
        if kind not in ("rotate", "encrypt"):
            raise SqlError(f"unknown lifecycle kind {kind!r}")
        with self._rotation_lock:
            rotation_id = (
                f"rot-{next(self._rotation_ids)}-{table.lower()}.{column.lower()}"
            )
            cls = InitialEncryptionJob if kind == "encrypt" else KeyRotationJob
            job = cls(
                self.engine,
                rotation_id,
                query_text,
                table,
                column,
                new_cek,
                batch_size=batch_size,
                scheme=scheme,
            )
            job.begin()
            self._rotation_jobs[rotation_id] = job
        return rotation_id

    def rotate_resume(
        self, rotation_id: str, query_text: str, batch_size: int = 64
    ) -> str:
        """Re-adopt a recovery-reinstated rotation after a crash.

        The caller must have re-authorized ``query_text`` (a fresh sealed
        package) — the enclave's session state did not survive the crash.
        """
        if self._quarantined:
            raise StaleRestoreError(QUARANTINE_MESSAGE)
        with self._rotation_lock:
            state = self.catalog.rotation(rotation_id)
            encryption = (
                self.catalog.table(state.table)
                .column(state.column)
                .column_type.encryption
            )
            if encryption is None:
                raise SqlError(
                    f"rotation {rotation_id!r} column lost its encryption metadata"
                )
            descriptor = RotationDescriptor(
                table=state.table,
                column=state.column,
                old_cek=state.old_cek,
                new_cek=state.new_cek,
                scheme=encryption.scheme,
                kind=state.kind,
            )
            self._rotation_jobs[rotation_id] = job_for_descriptor(
                self.engine, rotation_id, descriptor, query_text, batch_size
            )
        return rotation_id

    def rotate_step(self, rotation_id: str, max_batches: int = 1) -> tuple[bool, int]:
        """Advance a job by up to ``max_batches`` batches.

        Returns ``(more_work, rows_changed)``. Driving the loop from the
        caller keeps each step short, so live traffic interleaves between
        batches exactly as the paper's online rotation requires.
        """
        if self._quarantined:
            raise StaleRestoreError(QUARANTINE_MESSAGE)
        with self._rotation_lock:
            job = self._rotation_jobs.get(rotation_id)
        if job is None:
            raise BindError(
                f"unknown or unresumed rotation {rotation_id!r}; after a crash "
                "call rotate_resume first"
            )
        more, total = True, 0
        for _ in range(max(1, max_batches)):
            more, rows = job.step()
            total += rows
            if not more:
                break
        return more, total

    def rotate_run(self, rotation_id: str) -> int:
        """Drive a job to completion (in-process convenience)."""
        more = True
        total = 0
        while more:
            more, rows = self.rotate_step(rotation_id)
            total += rows
        return total

    def rotation_states(self) -> list[RotationStatus]:
        """Every known lifecycle job's status, including catalog-reinstated
        rotations that no in-process job has adopted yet (post-crash)."""
        out: list[RotationStatus] = []
        with self._rotation_lock:
            jobs = dict(self._rotation_jobs)
        for job in jobs.values():
            out.append(job.status())
        seen = {status.rotation_id for status in out}
        for state in self.catalog.active_rotations():
            if state.rotation_id in seen:
                continue
            out.append(
                RotationStatus(
                    rotation_id=state.rotation_id,
                    table=state.table,
                    column=state.column,
                    old_cek=state.old_cek,
                    new_cek=state.new_cek,
                    kind=state.kind,
                    watermark=state.watermark,
                    rows_rotated=state.rows_rotated,
                    active=True,
                )
            )
        return out

    def cek_versions(self) -> dict[str, int]:
        """The catalog's CEK version table (anchor-witnessed on rotation)."""
        return self.catalog.cek_versions()


class ServerSession:
    """One client connection: transaction state + execution entry point.

    A session is used by one client thread at a time (the usual connection
    contract); *different* sessions execute concurrently, each statement
    on the thread its session's client called from.
    """

    def __init__(self, server: SqlServer, session_id: int):
        self.server = server
        self.session_id = session_id
        self._txn = None
        self._closed = False

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Release the session slot; rolls back any open transaction."""
        if self._closed:
            return
        self._closed = True
        if self._txn is not None:
            self.server.engine.abort(self._txn)
            self._txn = None
        self.server._release_session(self.session_id)

    def __enter__(self) -> "ServerSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- transactions -------------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self._txn is not None

    def _begin(self) -> None:
        if self._txn is not None:
            raise TransactionError("transaction already open on this session")
        self._txn = self.server.engine.begin()

    def _commit(self) -> None:
        if self._txn is None:
            raise TransactionError("no open transaction")
        self.server.engine.commit(self._txn)
        self._txn = None

    def _rollback(self) -> None:
        if self._txn is None:
            raise TransactionError("no open transaction")
        self.server.engine.abort(self._txn)
        self._txn = None

    def prepare_transaction(self, gtid: str) -> None:
        """2PC phase one: durably prepare this session's open transaction.

        On return the session has no open transaction — the prepared txn
        belongs to the engine's in-doubt table until the coordinator's
        commit_prepared/abort_prepared decision arrives (possibly on a
        different connection, possibly after a crash)."""
        if self._txn is None:
            raise TransactionError("no open transaction to prepare")
        self.server.engine.prepare(self._txn, gtid)
        self._txn = None

    # -- execution ------------------------------------------------------------------

    def execute(self, query_text: str, params: dict[str, object] | None = None) -> QueryResult:
        """Execute a statement. Parameters arrive already encrypted when the
        column requires it (the driver did that); SQL never sees plaintext
        for encrypted columns."""
        if self._closed:
            raise SqlError("session is closed")
        if self.server._quarantined:
            # Checked before any parsing or routing: a quarantined server
            # gives every statement the same fixed refusal, independent of
            # statement kind, encryption scheme, or schema.
            raise StaleRestoreError(QUARANTINE_MESSAGE)
        stmt_probe = query_text.lstrip().upper()
        if stmt_probe.startswith(("CREATE", "DROP", "ALTER")):
            return self._execute_ddl(query_text)
        if stmt_probe.startswith("BEGIN"):
            self._begin()
            return QueryResult()
        if stmt_probe.startswith("COMMIT"):
            self._commit()
            return QueryResult()
        if stmt_probe.startswith("ROLLBACK"):
            self._rollback()
            return QueryResult()
        # DML runs start-to-finish on this thread, so the thread-local
        # tracer and stats attribution context live where the work is.
        return self.server.scheduler.submit(
            lambda: self._run_statement(query_text, params or {})
        )

    def _run_statement(self, query_text: str, params: dict[str, object]) -> QueryResult:
        server = self.server
        statement_id = next(server._statement_ids)
        started = time.perf_counter()
        registry = get_registry()
        # This thread's record of the statement: everything it counts and
        # emits lands here lock-free and settles once, in the finally.
        record = registry.open_record(
            TraceContext(statement_id, statement_id, self.session_id)
        )
        query = query_text[:120]
        record_event("stmt.begin", query=query)
        outcome: dict[str, object] = {"ok": False}
        try:
            plan = server._plan(query_text)
            if plan.physical is None:
                raise ExecutionError(
                    f"executor cannot run {type(plan.stmt).__name__}"
                )
            autocommit = self._txn is None and not isinstance(
                plan.stmt, ast.SelectStmt
            )
            txn = self._txn
            if autocommit:
                txn = server.engine.begin()
            try:
                with server._tracer.span(
                    "server.statement",
                    kind=STATEMENT,
                    session=self.session_id,
                    statement=statement_id,
                ) as root_span:
                    result = server.executor.execute(plan.physical, params, txn=txn)
            except Exception:
                if autocommit and txn is not None:
                    server.engine.abort(txn)
                raise
            if autocommit and txn is not None:
                server.engine.commit(txn)
            server._statements_executed.inc()
            outcome = {"ok": True, "rows": result.rowcount}
        except BaseException as exc:
            outcome["error"] = type(exc).__name__
            raise
        finally:
            # Every stmt.begin gets its stmt.end, and the events buffered
            # before a failure reach the ring with it.
            elapsed_s = time.perf_counter() - started
            record_event("stmt.end", elapsed_s=elapsed_s, query=query, **outcome)
            registry.settle(record)
        result.stats = QueryStats.from_record(
            record,
            query_text=query_text,
            plan_info=result.plan_info,
            elapsed_s=elapsed_s,
            rows_returned=result.rowcount,
            # The shared null span of a site nobody asked to time has no end.
            root_span=root_span if root_span.end_s is not None else None,
            statement_id=statement_id,
            session_id=self.session_id,
        )
        return result

    # -- DDL ---------------------------------------------------------------------------

    def _execute_ddl(self, query_text: str) -> QueryResult:
        stmt = parse(query_text)
        if isinstance(stmt, ast.CreateCmkStmt):
            cmk = ColumnMasterKey(
                name=stmt.name,
                key_store_provider_name=stmt.key_store_provider_name,
                key_path=stmt.key_path,
                allow_enclave_computations=stmt.enclave_computations_signature is not None,
                signature=stmt.enclave_computations_signature or b"",
            )
            self.server.catalog.create_cmk(cmk)
            return QueryResult()
        if isinstance(stmt, ast.CreateCekStmt):
            value = CekEncryptedValue(
                column_master_key_name=stmt.cmk_name,
                algorithm=stmt.algorithm,
                encrypted_value=stmt.encrypted_value,
                signature=stmt.signature,
            )
            cek = ColumnEncryptionKey(name=stmt.name, encrypted_values=[value])
            self.server.catalog.create_cek(cek)
            return QueryResult()
        if isinstance(stmt, ast.CreateTableStmt):
            return self._create_table(stmt)
        if isinstance(stmt, ast.CreateIndexStmt):
            self.server.engine.create_index(
                IndexSchema(
                    name=stmt.name,
                    table_name=stmt.table,
                    column_names=stmt.columns,
                    unique=stmt.unique,
                    clustered=stmt.clustered,
                )
            )
            return QueryResult()
        if isinstance(stmt, ast.DropTableStmt):
            self.server.engine.drop_table(stmt.name)
            return QueryResult()
        if isinstance(stmt, ast.DropIndexStmt):
            self.server.engine.drop_index(stmt.table, stmt.name)
            return QueryResult()
        if isinstance(stmt, ast.AlterColumnStmt):
            return self._alter_column(query_text, stmt)
        if isinstance(stmt, ast.AlterCekStmt):
            # CMK rotation metadata surgery (§4.3): ADD VALUE starts it
            # (the CEK is temporarily wrapped under both CMKs), DROP VALUE
            # finishes it. Pure system-table DDL — no enclave, no rows.
            if stmt.action == "add":
                value = CekEncryptedValue(
                    column_master_key_name=stmt.cmk_name,
                    algorithm=stmt.algorithm,
                    encrypted_value=stmt.encrypted_value,
                    signature=stmt.signature,
                )
                self.server.catalog.alter_cek_add_value(stmt.name, value)
            else:
                self.server.catalog.alter_cek_drop_value(stmt.name, stmt.cmk_name)
            return QueryResult()
        raise SqlError(f"unsupported DDL {type(stmt).__name__}")

    def _create_table(self, stmt: ast.CreateTableStmt) -> QueryResult:
        columns: list[ColumnSchema] = []
        for definition in stmt.columns:
            encryption = None
            if definition.encryption is not None:
                scheme = (
                    EncryptionScheme.DETERMINISTIC
                    if definition.encryption.encryption_type == "Deterministic"
                    else EncryptionScheme.RANDOMIZED
                )
                encryption = self.server.catalog.encryption_info(
                    definition.encryption.cek_name, scheme, definition.encryption.algorithm
                )
            columns.append(
                ColumnSchema(
                    name=definition.name,
                    column_type=ColumnType(
                        sql_type=SqlType(definition.type_name, definition.type_length),
                        encryption=encryption,
                    ),
                    nullable=definition.nullable,
                )
            )
        schema = TableSchema(name=stmt.name, columns=columns, primary_key=stmt.primary_key)
        self.server.engine.create_table(schema)
        return QueryResult()

    def _alter_column(self, query_text: str, stmt: ast.AlterColumnStmt) -> QueryResult:
        """In-place (initial) encryption / rotation / decryption (§2.4.2, §3.2).

        Uses the enclave's gated Encrypt/Recrypt/Decrypt: the enclave will
        refuse unless the client authorized exactly this query text via the
        sealed CEK package. All row rewrites run in one transaction and are
        logged, so the operation is online and recoverable.
        """
        server = self.server
        if server.enclave is None:
            raise EnclaveError(
                "ALTER COLUMN encryption changes require an enclave; use the "
                "client-side tools for enclave-less (round-trip) encryption"
            )
        engine = server.engine
        table = engine.table(stmt.table)
        schema = table.schema
        column = schema.column(stmt.column)
        slot = schema.column_index(stmt.column)
        old_enc = column.column_type.encryption

        new_enc = None
        if stmt.encryption is not None:
            scheme = (
                EncryptionScheme.DETERMINISTIC
                if stmt.encryption.encryption_type == "Deterministic"
                else EncryptionScheme.RANDOMIZED
            )
            new_enc = server.catalog.encryption_info(
                stmt.encryption.cek_name, scheme, stmt.encryption.algorithm
            )
            if not new_enc.enclave_enabled:
                raise EnclaveError(
                    "in-place encryption requires an enclave-enabled CEK; "
                    "otherwise a client round-trip is needed"
                )
        if old_enc is None and new_enc is None:
            raise SqlError("ALTER COLUMN: column is already plaintext")

        # Indexes keyed on this column must be rebuilt under the new type;
        # drop their trees and recreate after the rewrite.
        affected_indexes = [
            obj.schema
            for obj in table.indexes.values()
            if slot in obj.key_slots
        ]
        for index_schema in affected_indexes:
            engine.drop_index(stmt.table, index_schema.name)

        # Update the schema first so row validation accepts the new cell
        # form during the rewrite; on failure the old type is restored.
        old_column_type = column.column_type
        server.catalog.set_column_type(
            stmt.table,
            stmt.column,
            ColumnType(sql_type=SqlType(stmt.type_name, stmt.type_length), encryption=new_enc),
        )
        txn = engine.begin()
        try:
            for rid, row in list(table.heap.scan()):
                cell = row[slot]
                if cell is None:
                    continue
                new_cell = self._convert_cell(query_text, cell, old_enc, new_enc)
                new_row = list(row)
                new_row[slot] = new_cell
                engine.update(txn, stmt.table, rid, tuple(new_row))
            engine.commit(txn)
        except Exception:
            if txn.is_active:
                engine.abort(txn)
            server.catalog.set_column_type(stmt.table, stmt.column, old_column_type)
            raise
        for index_schema in affected_indexes:
            index_schema.valid = True
            engine.create_index(index_schema)
        return QueryResult()

    def _convert_cell(self, query_text, cell, old_enc, new_enc):
        enclave = self.server.enclave
        if old_enc is None:
            # Initial encryption: plaintext → ciphertext via the gated oracle.
            return enclave.encrypt_for_ddl(
                query_text, new_enc.cek_name, serialize_value(cell), new_enc.scheme
            )
        if new_enc is None:
            # Decryption back to plaintext (client-authorized).
            if not isinstance(cell, Ciphertext):
                raise SqlError("expected ciphertext cell during decryption DDL")
            return deserialize_value(
                enclave.decrypt_for_ddl(query_text, old_enc.cek_name, cell)
            )
        # Key rotation / scheme change: recrypt inside the enclave.
        if not isinstance(cell, Ciphertext):
            raise SqlError("expected ciphertext cell during recrypt DDL")
        return enclave.recrypt_for_ddl(
            query_text, old_enc.cek_name, new_enc.cek_name, cell, new_enc.scheme
        )


ALGORITHM = ALGORITHM_NAME
