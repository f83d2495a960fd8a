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
* DDL, including the enclave-mediated ``ALTER TABLE ALTER COLUMN`` for
  initial encryption, key rotation and decryption (Sections 2.4.2, 3.2),
  which runs the column's online lifecycle job to completion — batch by
  batch, crash-resumable, without any client round-trip per row;
* the admin verbs that start, resume and step those jobs;
* forwarding sealed CEK packages from driver to enclave (SQL is the
  untrusted man-in-the-middle), which also unblocks deferred transactions
  and pending index rebuilds, since "the client connects and sends keys".
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass
from functools import cached_property

from repro.attestation.hgs import HostGuardianService
from repro.attestation.protocol import AttestationInfo, server_attest
from repro.attestation.tpm import HostMachine
from repro.crypto.aead import EncryptionScheme
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
from repro.obs.metrics import HIT, OK, RAN, ROWS, StatsView, get_registry
from repro.obs.tracing import NO_SPAN, STATEMENT, TraceContext, get_tracer
from repro.keys.cmk import ColumnMasterKey
from repro.sqlengine.catalog import Catalog, ColumnSchema, IndexSchema, TableSchema
from repro.sqlengine.engine import StorageEngine
from repro.sqlengine.rotation import (
    DEFAULT_BATCH_SIZE,
    JOB_KINDS,
    KeyLifecycleJob,
    RotationStatus,
)
from repro.sqlengine.storage.freshness import FreshnessAnchor
from repro.sqlengine.exec.executor import Executor, QueryResult
from repro.sqlengine.exec.plan import PLANNED_STATEMENTS, Plan, build_plan
from repro.sqlengine.scheduler import StatementScheduler
from repro.sqlengine.scope import Scope
from repro.sqlengine.sqlparser import ast, parse
from repro.sqlengine.typededuce import deduce
from repro.sqlengine.types import ColumnType, EncryptionInfo, SqlType


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
    """Output of ``sp_describe_parameter_encryption``.

    A planned statement's result is built once, with its plan, and shared
    by every describe of the text that carries no attestation: nobody may
    mutate one. The two derived views below are not wire fields; each is
    computed on first use, once per object.
    """

    parameters: list[ParameterDescription]
    parameter_ceks: dict[str, CekMetadata]   # cek name → metadata
    enclave_ceks: list[CekMetadata]          # CEKs needed inside the enclave
    attestation: AttestationInfo | None = None

    @property
    def uses_enclave(self) -> bool:
        return bool(self.enclave_ceks)

    @cached_property
    def encrypted_parameters(self) -> tuple[tuple[str, SqlType, EncryptionInfo], ...]:
        """(name, type, encryption) of each parameter sent encrypted."""
        return tuple(
            (p.name, p.column_type.sql_type, p.column_type.encryption)
            for p in self.parameters
            if p.column_type.encryption is not None
        )

    @cached_property
    def parameters_by_name(self) -> dict[str, ParameterDescription]:
        """Every parameter under its lower-cased name."""
        return {p.name.lower(): p for p in self.parameters}


#: Plan-cache capacity in statement texts; least recently used goes first.
PLAN_CACHE_CAPACITY = 1024


@dataclass(frozen=True)
class _CachedPlan:
    """Everything the server derives from one statement text, built once:
    valid while the catalog's schema version is still ``version``."""

    version: int
    stmt: ast.Statement
    physical: Plan | None                          # None: not a planned statement
    # What type deduction (Section 4.3) found, with the key metadata
    # looked up ...
    parameters: tuple[ParameterDescription, ...] = ()
    parameter_ceks: tuple[tuple[str, CekMetadata], ...] = ()
    enclave_ceks: tuple[CekMetadata, ...] = ()
    # ... and sp_describe_parameter_encryption's answer built from it once;
    # None for DDL, whose enclave CEKs are read at each describe.
    describe: DescribeResult | None = None


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
        self._last_plan: _CachedPlan | None = None
        self.stats = ServerStats()
        self._plan_cache_hits = self.stats.handle("plan_cache_hits")
        self._describe_calls = self.stats.handle("describe_calls")
        self._tracer = get_tracer()
        self._registry = get_registry()
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
        self._sessions_gauge = self._registry.gauge(
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

    def _plan(self, query_text: str) -> tuple[_CachedPlan, bool]:
        """The text's plan, and whether the cache held it (the caller
        counts the hit; a miss is counted here)."""
        # Read the version before anything it covers: a plan built while a
        # schema change is in flight is tagged with the older version and
        # dies at the change's bump.
        version = self.catalog.schema_version
        # A statement's execute follows its describe: the entry last looked
        # up is already the most recently used, so its hit skips the lock
        # (one lookup is atomic on its own).
        cached = self._plan_cache.get(query_text)
        if cached is self._last_plan and cached is not None and cached.version == version:
            return cached, True
        with self._plan_lock:
            cached = self._plan_cache.get(query_text)
            if cached is not None and cached.version == version:
                self._plan_cache.move_to_end(query_text)
                self._last_plan = cached
                return cached, True
        self.stats.inc("plan_cache_misses")
        # Compile outside the lock: it only reads the catalog, and concurrent
        # first executions of one text just race to insert equivalent plans.
        stmt = parse(query_text)
        if not isinstance(stmt, PLANNED_STATEMENTS):
            return _CachedPlan(version, stmt, None), False
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
        enclave_ceks = tuple(self._cek_metadata(name) for name in sorted(deduction.enclave_ceks))
        cached = _CachedPlan(
            version=version,
            stmt=stmt,
            physical=build_plan(stmt, deduction, self.engine, self.allow_enclave_order_by),
            parameters=parameters,
            parameter_ceks=tuple(parameter_ceks.items()),
            enclave_ceks=enclave_ceks,
            describe=DescribeResult(list(parameters), parameter_ceks, list(enclave_ceks)),
        )
        with self._plan_lock:
            self._plan_cache[query_text] = cached
            self._plan_cache.move_to_end(query_text)
            self._last_plan = cached
            if len(self._plan_cache) > PLAN_CACHE_CAPACITY:
                self._plan_cache.popitem(last=False)
        return cached, False

    # ------------------------------------------- sp_describe_parameter_encryption

    def describe_parameter_encryption(
        self, query_text: str, client_dh_public: int | None = None
    ) -> DescribeResult:
        """The Section 4.1 API: per-parameter encryption types, CEK/CMK
        metadata, and attestation info when the enclave is involved.

        A planned statement's answer is its plan's own ``DescribeResult``,
        or a copy of it carrying the attestation. DDL is described too: its
        enclave CEKs are the only thing the driver needs to know about it,
        and they are read at describe time, because an online rotation's
        progress is not covered by the schema version.
        """
        self._describe_calls.inc()
        plan, hit = self._plan(query_text)
        if hit:
            # In-process a describe runs in the driver's statement record:
            # its hit is one of the counts every statement makes there.
            record = self._registry.thread.record
            if record is None:
                self._plan_cache_hits.inc()
            else:
                record.fixed[HIT] += 1
        described = plan.describe
        if described is None:
            described = DescribeResult(
                [], {}, list(map(self._cek_metadata, self._ddl_enclave_ceks(plan.stmt)))
            )
        if described.enclave_ceks and client_dh_public is not None:
            return dataclasses.replace(described, attestation=self.attest(client_dh_public))
        return described

    def _ddl_enclave_ceks(self, stmt: ast.Statement) -> list[str]:
        """The CEKs a DDL statement needs inside the enclave.

        ``CREATE INDEX`` compares its enclave-enabled RND key columns there
        (Section 3.1.2). ``ALTER COLUMN`` re-encrypts from the column's key
        (both keys of an online rotation under way) to its target key
        (Section 3.2). The driver refuses any of them whose CMK forbids
        enclave computations.
        """
        names: list[str] = []
        if isinstance(stmt, ast.CreateIndexStmt):
            table = self.catalog.table(stmt.table)
            for column_name in stmt.columns:
                enc = table.column(column_name).column_type.encryption
                rnd = enc is not None and enc.scheme is EncryptionScheme.RANDOMIZED
                if rnd and enc.enclave_enabled:
                    names.append(enc.cek_name)
        elif isinstance(stmt, (ast.AlterColumnStmt, ast.AlterColumnOnlineStmt)):
            rotation = self.catalog.column_rotation(stmt.table, stmt.column)
            if rotation is not None:
                names += [rotation.old_cek, rotation.new_cek]
            else:
                enc = self.catalog.table(stmt.table).column(stmt.column).column_type.encryption
                names.append(enc.cek_name if enc is not None else "")
            if isinstance(stmt, ast.AlterColumnOnlineStmt):
                names.append(stmt.cek_name)
            elif stmt.encryption is not None:
                names.append(stmt.encryption.cek_name)
        return [name for name in dict.fromkeys(names) if name]

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

    def audit(self) -> list[str]:
        """The physical audit: every usable index that disagrees with its heap."""
        return self.engine.verify_index_consistency()

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
        batch_size: int = DEFAULT_BATCH_SIZE,
        kind: str = "rotate",
        scheme: EncryptionScheme | None = None,
    ) -> str:
        """Start an online lifecycle job; returns its rotation id.

        ``kind`` is ``"rotate"``, ``"encrypt"`` or ``"decrypt"`` (whose
        ``new_cek`` is ``""``). ``query_text`` is the DDL text the client
        authorized through its sealed CEK package — the enclave refuses the
        job's first, empty batch without it, so an unauthorized start
        changes nothing and is useless to an attacker who has only
        compromised the server.
        """
        if self._quarantined:
            raise StaleRestoreError(QUARANTINE_MESSAGE)
        if kind not in JOB_KINDS:
            raise SqlError(f"unknown lifecycle kind {kind!r}")
        with self._rotation_lock:
            rotation_id = (
                f"rot-{next(self._rotation_ids)}-{table.lower()}.{column.lower()}"
            )
            job = JOB_KINDS[kind](
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
        self, rotation_id: str, query_text: str, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> str:
        """Re-adopt a recovery-reinstated rotation after a crash.

        The caller must have re-authorized ``query_text`` (a fresh sealed
        package) — the enclave's session state did not survive the crash.
        A job this process is still driving is adopted as it is: its
        drivers then take turns stepping it.
        """
        if self._quarantined:
            raise StaleRestoreError(QUARANTINE_MESSAGE)
        with self._rotation_lock:
            state = self.catalog.rotation(rotation_id)
            live = self._rotation_jobs.get(rotation_id)
            if live is not None and not live.done:
                return rotation_id
            # The column was flipped to the job's target at its begin.
            target = self.catalog.table(state.table).column(state.column).column_type.encryption
            job = JOB_KINDS[state.kind](
                self.engine,
                rotation_id,
                query_text,
                state.table,
                state.column,
                state.new_cek,
                batch_size=batch_size,
                scheme=target.scheme if target is not None else None,
            )
            job.resume()
            self._rotation_jobs[rotation_id] = job
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
            if state.rotation_id not in seen:
                out.append(RotationStatus(active=True, **asdict(state)))
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
        registry = server._registry
        trace = TraceContext(statement_id, statement_id, self.session_id)
        # This thread's record of the statement: everything it counts and
        # emits lands here lock-free and settles once. In-process, that is
        # the driver's (no trace identity), stamped for the statement and
        # read less its counts at the start; otherwise, the statement's own.
        record = registry.thread.record
        base = record.counts.copy() if record is not None and record.trace is None else None
        if base is None:
            record = registry.open_record(trace)
        else:
            record.trace = trace
        tracer = server._tracer
        hit, rows, outcome = False, 0, {"ok": False}
        try:
            plan, hit = server._plan(query_text)
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
                # The span is opened only if someone asked (Tracer.span's
                # rule, tested here to skip the call).
                with tracer.span(
                    "server.statement",
                    kind=STATEMENT,
                    session=self.session_id,
                    statement=statement_id,
                ) if tracer.enabled or record.spans else NO_SPAN as root_span:
                    result = server.executor.execute(plan.physical, params, txn=txn)
                rows = result.rowcount
            except Exception:
                if autocommit and txn is not None:
                    server.engine.abort(txn)
                raise
            if autocommit and txn is not None:
                server.engine.commit(txn)
            outcome = {"ok": True, "rows": rows}
        except BaseException as exc:
            outcome["error"] = type(exc).__name__
            raise
        finally:
            # The counts every statement makes, in place; the statement's
            # one event, and with it the events buffered before a failure,
            # reach the ring at settle (its start is ``ts_s - elapsed_s``).
            fixed = record.fixed
            fixed[RAN] += 1
            fixed[HIT] += hit
            fixed[OK] += outcome["ok"]
            fixed[ROWS] += rows
            elapsed_s = time.perf_counter() - started
            record_event("stmt.end", elapsed_s=elapsed_s, query=query_text[:120], **outcome)
            if base is None:
                registry.settle(record)
            else:
                record.trace = None
        # The shared null span of a site nobody asked to time has no end.
        facts = dict(query_text=query_text, elapsed_s=elapsed_s, statement_id=statement_id,
                     session_id=self.session_id, plan_cache_hits=int(hit),
                     root_span=root_span if root_span.end_s is not None else None)
        result.counted = (record.counts if base is None else record.counts.copy(), base, facts)
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
        if isinstance(stmt, ast.AlterColumnOnlineStmt):
            raise SqlError(
                "an online ALTER COLUMN runs as a lifecycle job (rotate_start), not as DDL"
            )
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

    def _encryption_info(
        self, clause: ast.ColumnEncryptionClause | None
    ) -> EncryptionInfo | None:
        if clause is None:
            return None
        scheme = (
            EncryptionScheme.DETERMINISTIC
            if clause.encryption_type == "Deterministic"
            else EncryptionScheme.RANDOMIZED
        )
        return self.server.catalog.encryption_info(clause.cek_name, scheme, clause.algorithm)

    def _create_table(self, stmt: ast.CreateTableStmt) -> QueryResult:
        columns: list[ColumnSchema] = []
        for definition in stmt.columns:
            columns.append(
                ColumnSchema(
                    name=definition.name,
                    column_type=ColumnType(
                        sql_type=SqlType(definition.type_name, definition.type_length),
                        encryption=self._encryption_info(definition.encryption),
                    ),
                    nullable=definition.nullable,
                )
            )
        schema = TableSchema(name=stmt.name, columns=columns, primary_key=stmt.primary_key)
        self.server.engine.create_table(schema)
        return QueryResult()

    def _alter_column(self, query_text: str, stmt: ast.AlterColumnStmt) -> QueryResult:
        """In-place (initial) encryption, key rotation or decryption
        (§2.4.2, §3.2): the column's online lifecycle job, run to completion
        under this statement's text, which the enclave's oracle accepts
        only if a client authorized it.

        The job refuses what it cannot convert before anything changes. A
        run that failed or crashed midway leaves its job live; the same
        statement again adopts it and finishes.
        """
        server = self.server
        if server.enclave is None:
            raise EnclaveError(
                "ALTER COLUMN encryption changes require an enclave; use the "
                "client-side tools for enclave-less (round-trip) encryption"
            )
        column = server.catalog.table(stmt.table).column(stmt.column)
        sql_type = SqlType(stmt.type_name, stmt.type_length)
        if sql_type != column.column_type.sql_type:
            raise SqlError(
                f"ALTER COLUMN cannot change the type of {stmt.table}.{stmt.column} "
                f"from {column.column_type.sql_type} to {sql_type}"
            )
        current = column.column_type.encryption
        target = self._encryption_info(stmt.encryption)
        if target is not None and not target.enclave_enabled:
            raise EnclaveError(
                "in-place encryption requires an enclave-enabled CEK; "
                "otherwise a client round-trip is needed"
            )
        if current == target:
            # Restating the column's encryption changes nothing, unless a
            # run of this conversion is still live (begin flipped it).
            live = server.catalog.column_rotation(stmt.table, stmt.column)
            if live is None:
                return QueryResult()
            rotation_id = server.rotate_resume(live.rotation_id, query_text)
        else:
            kind = "encrypt" if current is None else "decrypt" if target is None else "rotate"
            rotation_id = server.rotate_start(
                stmt.table,
                stmt.column,
                target.cek_name if target is not None else "",
                query_text,
                kind=kind,
                scheme=target.scheme if target is not None else None,
            )
        server.rotate_run(rotation_id)
        return QueryResult()
