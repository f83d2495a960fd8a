"""The AE-aware client driver (Sections 2.5, 4.1).

The application issues parameterized queries with *plaintext* parameters
and receives *plaintext* results; everything cryptographic is transparent:

1. On first execution of a query, the driver calls
   ``sp_describe_parameter_encryption`` (one extra round-trip — the cost
   Figure 8's SQL-PT-AEConn configuration measures) and caches the result.
2. Parameters whose deduced type is encrypted are encrypted client-side
   with the right CEK and scheme. CEK material comes from the key provider
   via the CMK (verified against the client's trusted key paths and the
   CMK metadata signature — the two anti-tampering controls of Section 4.1).
3. If the query needs enclave computation, the driver verifies attestation
   (once, cached), derives the shared secret, and ships the needed CEKs in
   a sealed, nonce-protected package.
4. Results with encrypted columns are decrypted before being handed back.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, TypeVar

from repro.attestation.hgs import AttestationPolicy
from repro.attestation.protocol import verify_attestation_and_derive_secret
from repro.crypto.aead import CellCipher
from repro.crypto.dh import DiffieHellman
from repro.enclave import CekPackage, seal_package
from repro.errors import (
    DriverError,
    IntegrityError,
    ReplayError,
    SecurityViolation,
    TransientFault,
)
from repro.faults.actions import DropMessageDirective, DuplicateMessageDirective
from repro.faults.classify import is_transient
from repro.faults.registry import fault_point, register_fault_site
from repro.keys.providers import KeyProviderRegistry
from repro.client.caches import AttestationSession, CachedCek, CekCache
from repro.obs.metrics import StatsView, get_registry
from repro.obs.querystats import format_explain_analyze, format_explain_stats
from repro.obs.tracing import get_tracer
from repro.sqlengine.cells import Ciphertext
from repro.sqlengine.exec.executor import QueryResult
from repro.sqlengine.server import CekMetadata, DescribeResult, SqlServer
from repro.sqlengine.types import EncryptionInfo
from repro.sqlengine.values import deserialize_value, serialize_value

register_fault_site(
    "driver.describe_parameter_encryption",
    "the sp_describe_parameter_encryption round-trip (Section 4.1)",
)
register_fault_site(
    "enclave.channel.send",
    "a sealed CEK package leaving the driver; drop/duplicate capable",
)

_T = TypeVar("_T")


class DriverStats(StatsView):
    """Round-trip and cache accounting (feeds the performance model).

    Per-connection view over the ``driver.*`` registry counters; the
    attribute API is unchanged from the old plain-int dataclass."""

    FIELDS = {
        "executes": "driver.executes",
        "describe_roundtrips": "driver.describe_roundtrips",
        "execute_roundtrips": "driver.execute_roundtrips",
        "package_roundtrips": "driver.package_roundtrips",
        "key_provider_calls": "driver.key_provider_calls",
        "params_encrypted": "driver.params_encrypted",
        "results_decrypted": "driver.results_decrypted",
        "retries": "driver.retries",
    }

    @property
    def total_roundtrips(self) -> int:
        return self.describe_roundtrips + self.execute_roundtrips + self.package_roundtrips


@dataclass
class ConnectionOptions:
    """The connection-string surface of the AE driver."""

    # The AE connection-string property: absent ⇒ plain connection, the
    # driver never calls sp_describe_parameter_encryption (Section 4.1).
    column_encryption: bool = True
    # Client control: restrict CMK key paths to a trusted list.
    trusted_cmk_key_paths: tuple[str, ...] | None = None
    # Cache describe results to avoid the extra round-trip per execution.
    cache_describe_results: bool = True
    cek_cache_ttl_s: float = 7200.0
    # LRU bound on resident decrypted CEK material; ``None`` = unbounded.
    # Fleet-scale clients (one CEK per tenant) must set this.
    cek_cache_max_entries: int | None = None
    # Bounded exponential-backoff retry for transient failures of the
    # idempotent control-plane round-trips (describe, attest, CEK package
    # delivery). ``retry_max_attempts`` counts total tries, not re-tries.
    retry_max_attempts: int = 4
    retry_backoff_base_s: float = 0.001
    retry_backoff_cap_s: float = 0.05
    # Simulated network round-trip time, slept once per driver↔server
    # round-trip. In-process calls have no wire latency, which makes every
    # configuration CPU-bound; a nonzero RTT restores the regime the paper
    # measures (client latency dominated by round-trips), which is what
    # the measured Figure 8 bench needs to show client scaling.
    simulated_rtt_s: float = 0.0


class Connection:
    """A client connection to one SQL Server instance."""

    def __init__(
        self,
        server: SqlServer,
        registry: KeyProviderRegistry,
        options: ConnectionOptions | None = None,
        attestation_policy: AttestationPolicy | None = None,
    ):
        self.server = server
        self.session = server.connect()
        self.registry = registry
        self.options = options or ConnectionOptions()
        self.attestation_policy = attestation_policy
        self.stats = DriverStats()
        self._executes = self.stats.handle("executes")
        self._execute_roundtrips = self.stats.handle("execute_roundtrips")
        self.cek_cache = CekCache(
            ttl_s=self.options.cek_cache_ttl_s,
            max_entries=self.options.cek_cache_max_entries,
        )
        self._describe_cache: dict[str, DescribeResult] = {}
        self._attestation: AttestationSession | None = None
        # Guards the check-then-act on the describe cache and the
        # attestation session: two threads sharing a connection must not
        # negotiate two enclave sessions (the second would orphan the
        # first's installed CEKs).
        self._state_lock = threading.RLock()

    # ------------------------------------------------------------------ public

    def close(self) -> None:
        """Close the server session and release its slot."""
        self.session.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _roundtrip_delay(self) -> None:
        if self.options.simulated_rtt_s > 0:
            time.sleep(self.options.simulated_rtt_s)

    def execute(
        self,
        query_text: str,
        params: dict[str, object] | None = None,
        force_encryption: frozenset[str] | set[str] = frozenset(),
    ) -> QueryResult:
        """Execute a parameterized statement transparently.

        ``force_encryption`` names parameters the application *requires* to
        be encrypted — the Section 4.1 defense against a server that lies
        about a column being plaintext.
        """
        # The driver's scope is the parent of the server's statement record:
        # its own counts ride along and everything settles once, here.
        registry = get_registry()
        record = registry.open_record()
        try:
            result = self._execute(query_text, params or {}, force_encryption)
        finally:
            registry.settle(record)
        if result.stats is not None:
            result.stats.add_driver_counts(record)
        return result

    def _execute(
        self,
        query_text: str,
        params: dict[str, object],
        force_encryption: frozenset[str] | set[str],
    ) -> QueryResult:
        self._executes.inc()
        if not self.options.column_encryption:
            # Plain connection: no describe round-trip, params pass through.
            self._execute_roundtrips.inc()
            self._roundtrip_delay()
            return self.session.execute(query_text, params)

        describe = self._describe(query_text)
        self._check_forced(describe, force_encryption)

        wire_params: dict[str, object] = dict(params)
        for description in describe.parameters:
            enc = description.column_type.encryption
            if enc is None:
                continue
            name = description.name
            key = self._param_key(params, name)
            plaintext = params[key]
            if plaintext is None:
                wire_params[key] = None
                continue
            description.column_type.sql_type.validate(plaintext)
            cipher = self._cek(enc.cek_name, describe).cipher
            wire_params[key] = Ciphertext(
                cipher.encrypt(serialize_value(plaintext), enc.scheme)
            )
            self.stats.inc("params_encrypted")

        if describe.uses_enclave:
            self._ensure_enclave_keys(describe)

        self._execute_roundtrips.inc()
        self._roundtrip_delay()
        result = self.session.execute(query_text, wire_params)
        return self._decrypt_result(result)

    def explain_stats(
        self, query_text: str, params: dict[str, object] | None = None
    ) -> str:
        """Run a statement and pretty-print its :class:`QueryStats`."""
        # The open root span is the request for this statement's span tree.
        with get_tracer().root("driver.explain"):
            result = self.execute(query_text, params)
        if result.stats is None:
            return "EXPLAIN STATS\n  <no stats collected>"
        return format_explain_stats(result.stats)

    def explain_analyze(
        self, query_text: str, params: dict[str, object] | None = None
    ) -> str:
        """Run a statement and render its timeline + contention profile."""
        with get_tracer().root("driver.explain"):
            result = self.execute(query_text, params)
        if result.stats is None:
            return "EXPLAIN ANALYZE\n  <no stats collected>"
        return format_explain_analyze(result.stats)

    def execute_ddl(self, query_text: str, authorize_enclave: bool = False) -> QueryResult:
        """Run DDL; with ``authorize_enclave`` the driver signs the query
        text so the enclave's Encrypt/Recrypt oracle accepts it (the secure
        compilation check of Section 3.2).

        The CEKs referenced by the DDL must already be installed (the
        driver ships them along with the authorization, like a query would)
        — we ship every CEK the client can decrypt that appears in the
        statement text, which is what the tooling does.
        """
        needed_for_index = self._index_ddl_enclave_ceks(query_text)
        if needed_for_index:
            # Building a range index over RND columns runs enclave
            # comparisons — the client must have supplied the keys, exactly
            # as for a query (Section 3.1.2).
            self.install_enclave_ceks(needed_for_index)
        if authorize_enclave:
            needed = [
                cek.name
                for cek in self.server.catalog.ceks()
                if cek.name in query_text or self._column_cek_in(query_text, cek.name)
            ]
            self.authorize_enclave_query(query_text, needed)
        self.stats.inc("execute_roundtrips")
        self._roundtrip_delay()
        result = self.session.execute(query_text)
        # DDL can change encryption metadata (rotation, initial encryption);
        # cached describe results and CEK material may now be stale.
        self.invalidate_metadata_caches()
        return result

    def invalidate_metadata_caches(self) -> None:
        """Drop cached describe results (e.g. after DDL or key rotation)."""
        with self._state_lock:
            self._describe_cache.clear()

    def install_enclave_ceks(self, cek_names: list[str]) -> None:
        """Ship the named CEKs to the enclave over the secure channel."""
        session = self._attest()
        missing: list[tuple[str, bytes]] = []
        for name in cek_names:
            if name not in session.installed_ceks:
                metadata = self.server.fetch_cek_metadata(name)
                for cmk in metadata.cmks:
                    if not cmk.allow_enclave_computations:
                        raise SecurityViolation(
                            f"CMK {cmk.name!r} does not allow enclave computations"
                        )
                missing.append((name, self._unwrap_cek(metadata)))
        if not missing:
            return
        package = CekPackage(nonce=session.nonces.next(), ceks=tuple(missing))
        self._send_package(session, package)
        for name, __ in missing:
            session.installed_ceks.add(name)

    def authorize_enclave_query(self, query_text: str, cek_names: list[str]) -> None:
        """Attest and authorize ``query_text`` for the enclave's DDL oracle.

        Ships any not-yet-installed CEKs from ``cek_names`` together with
        the query-text hash, exactly as :meth:`execute_ddl` would — but
        without executing anything. The online key-lifecycle tooling uses
        this: rotation batches run through admin verbs, not DDL execution,
        yet the enclave still gates its Recrypt oracle on an authorized
        query hash (Section 3.2).
        """
        digest = hashlib.sha256(query_text.encode("utf-8")).digest()
        session = self._attest()
        ceks: list[tuple[str, bytes]] = []
        for name in cek_names:
            if name not in session.installed_ceks:
                metadata = self.server.fetch_cek_metadata(name)
                ceks.append((name, self._unwrap_cek(metadata)))
        package = CekPackage(
            nonce=session.nonces.next(),
            ceks=tuple(ceks),
            authorized_query_hashes=(digest,),
        )
        self._send_package(session, package)
        for name, __ in ceks:
            session.installed_ceks.add(name)

    def _index_ddl_enclave_ceks(self, query_text: str) -> list[str]:
        """CEKs an index-creation DDL would need inside the enclave."""
        try:
            from repro.crypto.aead import EncryptionScheme
            from repro.sqlengine.sqlparser import parse
            from repro.sqlengine.sqlparser import ast as _ast

            stmt = parse(query_text)
            if not isinstance(stmt, _ast.CreateIndexStmt):
                return []
            table = self.server.catalog.table(stmt.table)
            needed: list[str] = []
            for column_name in stmt.columns:
                enc = table.column(column_name).column_type.encryption
                if (
                    enc is not None
                    and enc.scheme is EncryptionScheme.RANDOMIZED
                    and enc.enclave_enabled
                    and enc.cek_name not in needed
                ):
                    needed.append(enc.cek_name)
            return needed
        except Exception:
            return []

    # ----------------------------------------------------------------- internals

    def _with_retries(self, op: str, fn: Callable[[], _T]) -> _T:
        """Run ``fn``, retrying classified-transient failures with bounded
        exponential backoff. Only idempotent control-plane operations go
        through here — DML is never silently re-executed."""
        attempts = 0
        while True:
            try:
                return fn()
            except Exception as exc:
                attempts += 1
                if not is_transient(exc) or attempts >= self.options.retry_max_attempts:
                    raise
                self.stats.inc("retries")
                delay = min(
                    self.options.retry_backoff_cap_s,
                    self.options.retry_backoff_base_s * (2 ** (attempts - 1)),
                )
                time.sleep(delay)

    def _send_package(self, session: AttestationSession, package: CekPackage) -> None:
        """Ship one sealed CEK package, with transient-drop retry.

        The fault point fires *before* delivery, so a retried send never
        re-uses a nonce the enclave already consumed. A duplicated message
        is delivered twice; the enclave's nonce range tracker rejects the
        second copy (Section 4.2) and the driver treats that rejection as
        the success it is.
        """

        def send_once() -> None:
            directive = fault_point("enclave.channel.send", nonce=package.nonce)
            if isinstance(directive, DropMessageDirective):
                raise TransientFault(
                    "enclave.channel.send", "sealed CEK package dropped in transit"
                )
            sealed = seal_package(session.shared_secret, package)
            self.server.forward_enclave_package(session.enclave_session_id, sealed)
            if isinstance(directive, DuplicateMessageDirective):
                try:
                    self.server.forward_enclave_package(
                        session.enclave_session_id, sealed
                    )
                except ReplayError:
                    pass  # the replayed nonce was rejected — the designed outcome

        self._with_retries("package", send_once)
        self.stats.inc("package_roundtrips")
        self._roundtrip_delay()

    def _param_key(self, params: dict[str, object], name: str) -> str:
        for key in params:
            if key.lower() == name.lower():
                return key
        raise DriverError(f"missing value for parameter @{name}")

    def _describe(self, query_text: str) -> DescribeResult:
        # The whole lookup-or-describe runs under the state lock: a second
        # thread racing the same text waits and takes the cache hit instead
        # of issuing a duplicate describe (and, worse, a duplicate
        # attestation session).
        with self._state_lock:
            cached = self._describe_cache.get(query_text)
            if cached is not None:
                return cached

            def describe_once() -> DescribeResult:
                # Only offer a DH public key when this connection is configured
                # for enclave attestation and no shared secret is cached yet.
                # The DH key pair is fresh per attempt: a retried attestation
                # always negotiates a new session.
                needs_dh = self._attestation is None and self.attestation_policy is not None
                client_dh = DiffieHellman() if needs_dh else None
                fault_point("driver.describe_parameter_encryption", query=query_text)
                describe = self.server.describe_parameter_encryption(
                    query_text,
                    client_dh_public=client_dh.public_key if client_dh is not None else None,
                )
                self.stats.inc("describe_roundtrips")
                self._roundtrip_delay()
                if describe.attestation is not None and self._attestation is None:
                    secret = self._verify_attestation(describe, client_dh)
                    self._attestation = AttestationSession(
                        enclave_session_id=describe.attestation.session_id,
                        shared_secret=secret,
                    )
                return describe

            describe = self._with_retries("describe", describe_once)
            if self.options.cache_describe_results:
                self._describe_cache[query_text] = describe
            return describe

    def _verify_attestation(self, describe: DescribeResult, client_dh: DiffieHellman) -> bytes:
        if self.attestation_policy is None:
            raise DriverError(
                "query requires enclave computations but no attestation policy "
                "was configured on this connection"
            )
        if self.server.hgs is None:
            raise DriverError("server has no HGS to verify attestation against")
        return verify_attestation_and_derive_secret(
            describe.attestation,
            client_dh,
            self.server.hgs.signing_public_key,
            self.attestation_policy,
        )

    def _attest(self) -> AttestationSession:
        with self._state_lock:
            if self._attestation is not None:
                return self._attestation
            if self.attestation_policy is None:
                raise DriverError("no attestation policy configured")

            def attest_once() -> AttestationSession:
                # Fresh DH pair per attempt: a retried attestation negotiates a
                # brand-new enclave session rather than resuming a half-built one.
                client_dh = DiffieHellman()
                info = self.server.attest(client_dh.public_key)
                self.stats.inc("describe_roundtrips")
                self._roundtrip_delay()
                if self.server.hgs is None:
                    raise DriverError("server has no HGS to verify attestation against")
                secret = verify_attestation_and_derive_secret(
                    info, client_dh, self.server.hgs.signing_public_key, self.attestation_policy
                )
                return AttestationSession(
                    enclave_session_id=info.session_id, shared_secret=secret
                )

            self._attestation = self._with_retries("attest", attest_once)
            return self._attestation

    def _check_forced(self, describe: DescribeResult, forced: frozenset[str] | set[str]) -> None:
        described = {p.name.lower(): p for p in describe.parameters}
        for name in forced:
            description = described.get(name.lower())
            if description is None or description.column_type.encryption is None:
                raise SecurityViolation(
                    f"application forced parameter @{name} to be encrypted, but "
                    "the server claims it is plaintext — refusing to send it"
                )

    def _check_cmk_trusted(self, metadata: CekMetadata) -> None:
        for cmk in metadata.cmks:
            if self.options.trusted_cmk_key_paths is not None:
                if cmk.key_path not in self.options.trusted_cmk_key_paths:
                    raise SecurityViolation(
                        f"CMK key path {cmk.key_path!r} is not in the trusted list"
                    )
            cmk.require_valid(self.registry)

    def _cek(self, cek_name: str, describe: DescribeResult | None = None) -> CachedCek:
        """The CEK's cache entry (material and cipher), unwrapping on a miss."""
        cached = self.cek_cache.entry(cek_name)
        if cached is not None:
            return cached
        metadata = None
        if describe is not None:
            metadata = describe.parameter_ceks.get(cek_name)
            if metadata is None:
                for candidate in describe.enclave_ceks:
                    if candidate.cek.name == cek_name:
                        metadata = candidate
                        break
        if metadata is None:
            metadata = self.server.fetch_cek_metadata(cek_name)
        return self.cek_cache.put(cek_name, self._unwrap_cek(metadata))

    def unwrap_cek(self, metadata: CekMetadata) -> bytes:
        """Unwrap CEK material client-side (trusted-path checks included).

        Public surface for the provisioning tools: CMK rotation re-wraps
        existing material, so the tooling legitimately needs the client's
        unwrap path — with its key-path trust list and signature checks —
        rather than a raw provider call.
        """
        return self._unwrap_cek(metadata)

    def _unwrap_cek(self, metadata: CekMetadata) -> bytes:
        self._check_cmk_trusted(metadata)
        errors: list[str] = []
        for cmk in metadata.cmks:
            value = metadata.cek.value_for_cmk(cmk.name)
            try:
                self.stats.inc("key_provider_calls")
                return value.decrypt(cmk, self.registry)
            except Exception as exc:  # try the other CMK (mid-rotation)
                errors.append(str(exc))
        raise DriverError(
            f"could not unwrap CEK {metadata.cek.name!r} under any CMK: {'; '.join(errors)}"
        )

    def _ensure_enclave_keys(self, describe: DescribeResult) -> None:
        session = self._attestation or self._attest()
        missing: list[tuple[str, bytes]] = []
        for metadata in describe.enclave_ceks:
            # The driver checks the CMK signature before releasing a CEK to
            # the enclave: an enclave-disabled CMK must never have its CEKs
            # shipped there, even if SQL claims otherwise (Section 2.2).
            self._check_cmk_trusted(metadata)
            for cmk in metadata.cmks:
                if not cmk.allow_enclave_computations:
                    raise SecurityViolation(
                        f"CMK {cmk.name!r} does not allow enclave computations; "
                        f"refusing to send CEK {metadata.cek.name!r} to the enclave"
                    )
            if metadata.cek.name not in session.installed_ceks:
                missing.append((metadata.cek.name, self._cek(metadata.cek.name, describe).material))
        if not missing:
            return
        package = CekPackage(nonce=session.nonces.next(), ceks=tuple(missing))
        self._send_package(session, package)
        for name, __ in missing:
            session.installed_ceks.add(name)

    def _decrypt_result(self, result: QueryResult) -> QueryResult:
        encrypted_columns = [
            (i, column.column_type.encryption)
            for i, column in enumerate(result.columns)
            if column.column_type.encryption is not None
        ]
        if not encrypted_columns:
            return result
        ciphers: dict[str, CellCipher] = {}
        for __, enc in encrypted_columns:
            if enc.cek_name not in ciphers:
                ciphers[enc.cek_name] = self._cek(enc.cek_name).cipher
        rotation_partners: dict[str, str | None] | None = None
        out_rows: list[tuple] = []
        for row in result.rows:
            cells = list(row)
            for i, enc in encrypted_columns:
                cell = cells[i]
                if cell is None:
                    continue
                if not isinstance(cell, Ciphertext):
                    # Mid initial-encryption the column is already declared
                    # encrypted but unswept rows are still plaintext; pass
                    # them through only while that job is demonstrably live.
                    if rotation_partners is None:
                        rotation_partners = self._rotation_partners()
                    if self._encrypting_live(enc.cek_name, rotation_partners):
                        continue
                    raise DriverError(
                        f"result column {result.columns[i].name!r} should be "
                        "ciphertext but is not"
                    )
                try:
                    plaintext = ciphers[enc.cek_name].decrypt(cell.envelope)
                except IntegrityError:
                    # Rows the rotation sweep has not reached yet (or, for a
                    # stale describe cache, rows it already converted) carry
                    # the rotation partner's CEK — a failed MAC is the probe;
                    # the partner comes from the active lifecycle jobs.
                    if rotation_partners is None:
                        rotation_partners = self._rotation_partners()
                    partner = rotation_partners.get(enc.cek_name)
                    if not partner:
                        raise
                    if partner not in ciphers:
                        ciphers[partner] = self._cek(partner).cipher
                    plaintext = ciphers[partner].decrypt(cell.envelope)
                cells[i] = deserialize_value(plaintext)
                self.stats.inc("results_decrypted")
            out_rows.append(tuple(cells))
        result.rows = out_rows
        return result

    def _rotation_partners(self) -> dict[str, str | None]:
        """Map each CEK involved in an active rotation to its partner.

        Covers both directions of the mixed-version window: a fresh
        describe (column already flipped to the new CEK) reading unswept
        old-key rows, and a stale describe (old CEK) reading rows the
        sweep already converted. Servers without the rotation surface
        (older wire peers) simply yield no partners.
        """
        partners: dict[str, str | None] = {}
        states_fn = getattr(self.server, "rotation_states", None)
        if states_fn is None:
            return partners
        for state in states_fn():
            if not state.active:
                continue
            if state.old_cek:
                partners[state.new_cek] = state.old_cek
                partners[state.old_cek] = state.new_cek
            else:  # initial encryption: no old key, only plaintext behind
                partners.setdefault(state.new_cek, None)
        return partners

    @staticmethod
    def _encrypting_live(cek_name: str, partners: dict[str, str | None]) -> bool:
        return cek_name in partners and partners[cek_name] is None

    def _column_cek_in(self, query_text: str, cek_name: str) -> bool:
        """Does this DDL's target column currently use ``cek_name``?

        Rotations reference the *old* CEK only implicitly (through the
        column), so the driver resolves it from the catalog metadata.
        """
        try:
            from repro.sqlengine.sqlparser import parse
            from repro.sqlengine.sqlparser import ast as _ast

            stmt = parse(query_text)
            if isinstance(stmt, _ast.AlterColumnStmt):
                column = self.server.catalog.table(stmt.table).column(stmt.column)
                enc = column.column_type.encryption
                return enc is not None and enc.cek_name == cek_name
        except Exception:
            return False
        return False

    # -- transactions ---------------------------------------------------------------

    def begin(self) -> None:
        self.stats.inc("execute_roundtrips")
        self._roundtrip_delay()
        self.session.execute("BEGIN TRANSACTION")

    def commit(self) -> None:
        self.stats.inc("execute_roundtrips")
        self._roundtrip_delay()
        self.session.execute("COMMIT")

    def rollback(self) -> None:
        self.stats.inc("execute_roundtrips")
        self._roundtrip_delay()
        self.session.execute("ROLLBACK")


def connect(
    server: SqlServer,
    registry: KeyProviderRegistry,
    column_encryption: bool = True,
    attestation_policy: AttestationPolicy | None = None,
    **option_kwargs,
) -> Connection:
    """Open a connection; ``column_encryption`` mirrors the AE connection-
    string property."""
    options = ConnectionOptions(column_encryption=column_encryption, **option_kwargs)
    return Connection(
        server, registry, options=options, attestation_policy=attestation_policy
    )
