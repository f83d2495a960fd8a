"""The AE-aware client driver (Sections 2.5, 4.1).

The application issues parameterized queries with *plaintext* parameters
and receives *plaintext* results; everything cryptographic is transparent:

1. Before executing a statement, the driver calls
   ``sp_describe_parameter_encryption`` (one extra round-trip — the cost
   Figure 8's SQL-PT-AEConn configuration measures). In paper mode
   (``cache_describe_results=False``, what every TPC-C client runs, pinned
   by ``test_every_client_runs_in_paper_mode``) it does so on every
   execute; otherwise it describes a text on its first execution and
   caches the result.
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

import contextlib
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
from repro.faults.registry import fault_site
from repro.keys.providers import KeyProviderRegistry
from repro.client.caches import AttestationSession, CachedCek, CekCache
from repro.obs.metrics import EXECUTES, ROUNDTRIPS, StatementRecord, StatsView, get_registry
from repro.obs.querystats import format_explain_analyze, format_explain_stats
from repro.obs.tracing import get_tracer
from repro.sqlengine.cells import Ciphertext
from repro.sqlengine.exec.executor import QueryResult
from repro.sqlengine.server import CekMetadata, DescribeResult, SqlServer
from repro.sqlengine.types import EncryptionInfo
from repro.sqlengine.values import deserialize_value, serialize_value

_DESCRIBE = fault_site("driver.describe_parameter_encryption")
_CHANNEL_SEND = fault_site("enclave.channel.send")

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
        self._describe_roundtrips = self.stats.handle("describe_roundtrips")
        self._params_encrypted = self.stats.handle("params_encrypted")
        self._results_decrypted = self.stats.handle("results_decrypted")
        self._metrics = get_registry()
        self.cek_cache = CekCache(
            ttl_s=self.options.cek_cache_ttl_s,
            max_entries=self.options.cek_cache_max_entries,
        )
        self._describe_cache: dict[str, DescribeResult] = {}
        self._attestation: AttestationSession | None = None
        # The DH pair offered by describes until one attests: an attestation
        # consumes it and a failed attempt drops it (``_describe``).
        self._pending_dh: DiffieHellman | None = None
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
        # One record for the whole call: an in-process server statement runs
        # in it too, and everything settles once, here.
        record = self._metrics.open_record()
        try:
            result = self._execute(query_text, params or {}, force_encryption, record)
        finally:
            self._metrics.settle(record)
        result.driver_counts = record.counts
        return result

    def _execute(
        self,
        query_text: str,
        params: dict[str, object],
        force_encryption: frozenset[str] | set[str],
        record: StatementRecord,
    ) -> QueryResult:
        plain = not self.options.column_encryption
        if plain:
            # Plain connection: no describe round-trip, params pass through.
            wire_params = params
        else:
            try:
                wire_params = self._encrypt_params(query_text, params, force_encryption)
            except BaseException:
                record.fixed[EXECUTES] += 1      # an execute that never left the client
                raise
        record.fixed[EXECUTES] += 1
        record.fixed[ROUNDTRIPS] += 1
        self._roundtrip_delay()
        result = self.session.execute(query_text, wire_params)
        return result if plain else self._decrypt_result(result)

    def _encrypt_params(
        self,
        query_text: str,
        params: dict[str, object],
        force_encryption: frozenset[str] | set[str],
    ) -> dict[str, object]:
        """Describe the statement and encrypt the parameters it says are
        encrypted; ship the enclave its CEKs when it will need them. The
        application's ``params`` go out as they are unless one is encrypted."""
        describe = self._describe(query_text)
        self._check_forced(describe, force_encryption)

        wire_params = params
        for name, sql_type, enc in describe.encrypted_parameters:
            key = self._param_key(params, name)
            plaintext = params[key]
            if plaintext is None:
                continue
            sql_type.validate(plaintext)
            cipher = self._cek(enc.cek_name, describe).cipher
            if wire_params is params:
                wire_params = dict(params)
            wire_params[key] = Ciphertext(
                cipher.encrypt(serialize_value(plaintext), enc.scheme)
            )
            self._params_encrypted.inc()

        if describe.uses_enclave:
            self._ensure_enclave_keys(describe)
        return wire_params

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
        """Run DDL. Like a query, it is described first, and the CEKs the
        server names for the enclave are shipped there (a range index over
        RND columns compares inside it, Section 3.1.2; an ALTER COLUMN
        re-encrypts inside it, Section 3.2).

        ``authorize_enclave`` adds the text's hash to the same package, so
        the enclave's Encrypt/Recrypt oracle accepts this statement (the
        secure compilation check of Section 3.2). It is the client's stated
        intent to use that oracle: authorizing every DDL would let the host
        use it under any CEK a ``CREATE INDEX`` names.
        """
        if self.options.column_encryption:
            describe = self._describe(query_text)
            if describe.uses_enclave or authorize_enclave:
                self._ensure_enclave_keys(describe, query_text if authorize_enclave else None)
        self.stats.inc("execute_roundtrips")
        self._roundtrip_delay()
        try:
            return self.session.execute(query_text)
        finally:
            # DDL can change encryption metadata (rotation, initial
            # encryption); cached describe results may now be stale, and a
            # DDL's own describe is never worth keeping.
            self.invalidate_metadata_caches()

    def invalidate_metadata_caches(self) -> None:
        """Drop cached describe results (e.g. after DDL or key rotation)."""
        with self._state_lock:
            self._describe_cache.clear()

    def authorize_enclave_query(self, query_text: str) -> None:
        """Authorize ``query_text`` for the enclave's Encrypt/Recrypt oracle
        without executing it: describe it, then ship the CEKs the server
        names together with the text's hash, exactly as :meth:`execute_ddl`
        with ``authorize_enclave`` would. The online key-lifecycle tooling
        uses this: rotation batches run through admin verbs, not DDL
        execution, yet the enclave still gates its Recrypt oracle on an
        authorized query hash (Section 3.2).
        """
        self._ensure_enclave_keys(self._describe(query_text), query_text)

    # ----------------------------------------------------------------- internals

    def _with_retries(self, op: str, fn: Callable[..., _T], *args) -> _T:
        """Run ``fn(*args)``, retrying classified-transient failures with
        bounded exponential backoff. Only idempotent control-plane
        operations go through here — DML is never silently re-executed."""
        attempts = 0
        while True:
            try:
                return fn(*args)
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

        The fault site fires *before* delivery, so a retried send never
        re-uses a nonce the enclave already consumed. A duplicated message
        is delivered twice; the enclave's nonce range tracker rejects the
        second copy (Section 4.2) and the driver treats that rejection as
        the success it is.
        """

        def send_once() -> None:
            directive = (
                _CHANNEL_SEND.fire(nonce=package.nonce) if _CHANNEL_SEND.armed else None
            )
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

    @staticmethod
    def _param_key(params: dict[str, object], name: str) -> str:
        if name in params:
            return name
        lowered = name.lower()
        for key in params:
            if key.lower() == lowered:
                return key
        raise DriverError(f"missing value for parameter @{name}")

    def _describe(self, query_text: str) -> DescribeResult:
        # A describe cache to fill or an attestation to negotiate is shared
        # state: the whole lookup-or-describe then runs under the state
        # lock, so a second thread racing the same text waits and takes the
        # cache hit instead of issuing a duplicate describe (and, worse, a
        # duplicate attestation session). Once attested (a session is never
        # dropped), a paper-mode describe touches nothing shared.
        if not self.options.cache_describe_results and (
            self._attestation is not None or self.attestation_policy is None
        ):
            return self._with_retries("describe", self._describe_once, query_text)
        with self._state_lock:
            cached = self._describe_cache.get(query_text)
            if cached is not None:
                return cached
            describe = self._with_retries("describe", self._describe_once, query_text)
            if self.options.cache_describe_results:
                self._describe_cache[query_text] = describe
            return describe

    def _describe_once(self, query_text: str) -> DescribeResult:
        # Only offer a DH public key when this connection is configured for
        # enclave attestation and no shared secret is cached yet (then the
        # caller holds the state lock). Describes that come back without an
        # attestation reuse the pending pair (one 2048-bit pow, not one per
        # describe); an attestation consumes it and a failed attempt drops
        # it, so a retried attestation still negotiates with a never-used pair.
        client_dh = None
        if self._attestation is None and self.attestation_policy is not None:
            client_dh = self._pending_dh = self._pending_dh or DiffieHellman()
        try:
            if _DESCRIBE.armed:
                _DESCRIBE.fire(query=query_text)
            describe = self.server.describe_parameter_encryption(
                query_text,
                client_dh_public=client_dh.public_key if client_dh is not None else None,
            )
            self._describe_roundtrips.inc()
            self._roundtrip_delay()
            if describe.attestation is not None and self._attestation is None:
                self._pending_dh = None
                secret = self._verify_attestation(describe, client_dh)
                self._attestation = AttestationSession(
                    enclave_session_id=describe.attestation.session_id,
                    shared_secret=secret,
                )
        except BaseException:
            self._pending_dh = None
            raise
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
                # Every attempt consumes its DH pair (the pending one, if a
                # describe made it): a retried attestation negotiates a
                # brand-new enclave session rather than resuming a half-built one.
                client_dh, self._pending_dh = self._pending_dh or DiffieHellman(), None
                info = self.server.attest(client_dh.public_key)
                self._describe_roundtrips.inc()
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
        for name in forced:
            description = describe.parameters_by_name.get(name.lower())
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

    def _ensure_enclave_keys(
        self, describe: DescribeResult, authorized_text: str | None = None
    ) -> None:
        """Ship the enclave CEKs ``describe`` names that the enclave lacks,
        and the hash of ``authorized_text`` if given, in one sealed package."""
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
        hashes = ()
        if authorized_text is not None:
            hashes = (hashlib.sha256(authorized_text.encode("utf-8")).digest(),)
        if not missing and not hashes:
            return
        package = CekPackage(
            nonce=session.nonces.next(), ceks=tuple(missing), authorized_query_hashes=hashes
        )
        self._send_package(session, package)
        for name, __ in missing:
            session.installed_ceks.add(name)

    def _decrypt_result(self, result: QueryResult) -> QueryResult:
        rows = result.rows
        if not rows:
            return result
        encrypted_columns: list[tuple[int, EncryptionInfo]] = []
        leftover_columns: list[int] = []
        for i, column in enumerate(result.columns):
            enc = column.column_type.encryption
            if enc is not None:
                encrypted_columns.append((i, enc))
            # Mid-decryption the column is already declared plaintext while
            # unswept rows are still ciphertext: those cells are opened too.
            elif any(isinstance(row[i], Ciphertext) for row in rows):
                leftover_columns.append(i)
        if not encrypted_columns and not leftover_columns:
            return result
        ciphers: dict[str, CellCipher] = {}
        for __, enc in encrypted_columns:
            if enc.cek_name not in ciphers:
                ciphers[enc.cek_name] = self._cek(enc.cek_name).cipher
        rotation_partners = self._rotation_partners() if leftover_columns else None
        # A column opens as one batch; the rows take its results in order.
        opened = {i: iter(ciphers[enc.cek_name].decrypt_many(
            [row[i].envelope for row in result.rows if isinstance(row[i], Ciphertext)]
        )) for i, enc in encrypted_columns}
        decrypted = 0
        out_rows: list[tuple] = []
        try:
            for row in result.rows:
                cells = list(row)
                for i in leftover_columns:
                    if isinstance(cells[i], Ciphertext):
                        cells[i] = self._open_leftover(result.columns[i].name, cells[i],
                                                       rotation_partners)
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
                        if self._converting_live(enc.cek_name, rotation_partners):
                            continue
                        raise DriverError(
                            f"result column {result.columns[i].name!r} should be "
                            "ciphertext but is not"
                        )
                    plaintext = next(opened[i])
                    if isinstance(plaintext, IntegrityError):
                        # Rows the rotation sweep has not reached yet (or, for a
                        # stale describe cache, rows it already converted) carry
                        # the rotation partner's CEK — a failed MAC is the probe;
                        # the partner comes from the active lifecycle jobs.
                        if rotation_partners is None:
                            rotation_partners = self._rotation_partners()
                        partner = rotation_partners.get(enc.cek_name)
                        if not partner:
                            raise plaintext
                        if partner not in ciphers:
                            ciphers[partner] = self._cek(partner).cipher
                        plaintext = ciphers[partner].decrypt(cell.envelope)
                    elif not isinstance(plaintext, bytes):
                        raise plaintext
                    cells[i] = deserialize_value(plaintext)
                    decrypted += 1
                out_rows.append(tuple(cells))
        finally:
            if decrypted:
                self._results_decrypted.inc(decrypted)
        result.rows = out_rows
        return result

    def _open_leftover(self, column: str, cell: Ciphertext, partners) -> object:
        """A ciphertext cell of a column described as plaintext opens under a
        key some live job converts to or from plaintext (the MAC picks it)."""
        for cek_name in partners:
            if self._converting_live(cek_name, partners):
                with contextlib.suppress(IntegrityError):
                    plaintext = self._cek(cek_name).cipher.decrypt(cell.envelope)
                    self._results_decrypted.inc()
                    return deserialize_value(plaintext)
        raise DriverError(f"result column {column!r} should be plaintext but is ciphertext")

    def _rotation_partners(self) -> dict[str, str | None]:
        """Map each CEK involved in an active lifecycle job to its partner:
        the other key of a rotation, or None for a job converting a column
        between the key and plaintext (initial encryption, decryption).

        Covers both directions of the mixed-version window: a fresh
        describe (column already flipped to the new CEK) reading unswept
        old-key rows, and a stale describe (old CEK) reading rows the
        sweep already converted.
        """
        partners: dict[str, str | None] = {}
        for state in self.server.rotation_states():
            if not state.active:
                continue
            if state.old_cek and state.new_cek:
                partners[state.new_cek] = state.old_cek
                partners[state.old_cek] = state.new_cek
            else:  # one key, only plaintext on the other side
                partners.setdefault(state.old_cek or state.new_cek, None)
        return partners

    @staticmethod
    def _converting_live(cek_name: str, partners: dict[str, str | None]) -> bool:
        return cek_name in partners and partners[cek_name] is None

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
