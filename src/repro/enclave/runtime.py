"""The simulated VBS enclave (Sections 2.1, 4.2, 4.4).

The enclave is modelled as an object whose internal state (CEK material,
session secrets, plaintext mid-computation) the host never touches; the
*only* interaction surface is the explicit ecall methods below, and every
crossing is recorded so the strong-adversary simulation can observe exactly
what the paper says an adversary sees — and nothing more.

What the real TEE provides by hardware/hypervisor means (memory isolation)
is provided here by convention plus an observer API: the security analysis
in :mod:`repro.security` treats everything passed into or out of these
methods as adversary-visible, and nothing else.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.attestation.report import EnclaveReport
from repro.crypto.aead import EncryptionScheme
from repro.crypto.dh import DiffieHellman, public_key_bytes
from repro.crypto.rsa import RsaKeyPair
from repro.enclave.channel import SealedPackage, SessionSecrets, open_package
from repro.enclave.sqlos import SqlOs
from repro.enclave.validate import validate_program
from repro.errors import CryptoError, EnclaveError, IntegrityError, ReplayError
from repro.faults.registry import fault_point, register_fault_site
from repro.obs.flightrec import record_event
from repro.obs.metrics import StatsView

register_fault_site(
    "enclave.channel.recv",
    "a sealed CEK package arriving at the enclave's install ecall",
)
register_fault_site(
    "enclave.eval_batch",
    "per-row checkpoint inside a batched eval ecall (mid-batch failures)",
)
register_fault_site(
    "enclave.recrypt_batch",
    "per-row checkpoint inside a batched recrypt ecall (rotation mid-batch failures)",
)
from repro.sqlengine.cells import Ciphertext
from repro.sqlengine.expression.program import StackProgram
from repro.sqlengine.expression.vm import LoweredProgram, StackMachine
from repro.sqlengine.types import EncryptionInfo
from repro.sqlengine.values import (
    SqlScalar,
    compare_values,
    deserialize_value,
    serialize_value,
)

ENCLAVE_VERSION = 2
_session_ids = itertools.count(1)


@dataclass(frozen=True)
class EnclaveBinary:
    """The signed enclave "dll" the host loads.

    ``author_key`` is the specially provisioned signing key the paper
    describes (Section 4.2, health check 3): clients check the author ID
    rather than the binary hash so minor code changes don't break clients.
    """

    content: bytes
    version: int
    author_key: RsaKeyPair
    signature: bytes

    @classmethod
    def build(cls, author_key: RsaKeyPair, version: int = ENCLAVE_VERSION, content: bytes | None = None) -> "EnclaveBinary":
        if content is None:
            content = f"AE-enclave-ES-subset-v{version}".encode()
        return cls(
            content=content,
            version=version,
            author_key=author_key,
            signature=author_key.sign(content),
        )

    @property
    def binary_hash(self) -> bytes:
        return hashlib.sha256(self.content).digest()

    @property
    def author_id(self) -> bytes:
        return self.author_key.public.fingerprint()


class EnclaveCounters(StatsView):
    """Boundary-crossing and work counters (perf model + leakage analysis).

    Backed by the global metrics registry; each enclave instance reads its
    own deltas since construction. ``cpu_seconds`` is the CPU time spent
    inside enclave computation ecalls (eval/compare/DDL crypto) — the
    enclave service demand for the performance model.
    """

    FIELDS = {
        "ecalls": "enclave.ecalls",
        "sessions_started": "enclave.sessions_started",
        "packages_installed": "enclave.packages_installed",
        "programs_registered": "enclave.programs_registered",
        "evals": "enclave.evals",
        "eval_batches": "enclave.eval_batches",
        "batched_rows": "enclave.batched_rows",
        "comparisons": "enclave.comparisons",
        "compare_batches": "enclave.compare_batches",
        "cell_decrypts": "enclave.cell_decrypts",
        "cell_encrypts": "enclave.cell_encrypts",
        "cpu_seconds": "enclave.cpu_seconds",
        "replays_rejected": "enclave.replays_rejected",
    }


# Observer signature: (ecall_name, adversary_visible_inputs, visible_outputs)
BoundaryObserver = Callable[[str, tuple, object], None]


#: Most plaintexts one ecall keeps open at a time. The chunk size of an
#: ``eval_batch`` / ``compare_batch`` is the untrusted host's choice; how
#: much cleartext the enclave holds for it is not. Once full, further
#: operands are opened, used and dropped without being kept.
_MEMO_CAPACITY = 256


class _EcallCrypto:
    """One computation ecall's VM crypto context and plaintext memo.

    A local of the ecall — ``with _EcallCrypto(enclave) as crypto`` — so it
    dies on return and on raise, and concurrent ecalls (gateway workers,
    SYNCHRONOUS callers) share nothing. Leaving the block books the opens
    actually performed, raised or not.
    """

    def __init__(self, enclave: "Enclave"):
        self._enclave = enclave
        self.plaintexts: dict[tuple[str, bytes], SqlScalar] = {}
        self.partners: dict[str, str | None] = {}
        self.opens = 0

    def __enter__(self) -> "_EcallCrypto":
        return self

    def __exit__(self, *exc_info) -> None:
        self._enclave.counters.inc("cell_decrypts", self.opens)

    def decrypt_cell(self, ciphertext: Ciphertext, enc: EncryptionInfo) -> SqlScalar:
        return self._enclave._open(self, enc.cek_name, ciphertext.envelope)

    def encrypt_cell(self, value: SqlScalar, enc: EncryptionInfo) -> Ciphertext:
        cipher = self._enclave.sqlos.cipher_for(enc.cek_name)
        self._enclave.counters.inc("cell_encrypts")
        return Ciphertext(cipher.encrypt(serialize_value(value), enc.scheme))


class Enclave:
    """A loaded enclave instance inside the (untrusted) SQL Server process."""

    def __init__(self, binary: EnclaveBinary, hypervisor_version: int = 10):
        if not binary.author_key.public or not binary.signature:
            raise EnclaveError("enclave binary is unsigned")
        self.binary = binary
        self.hypervisor_version = hypervisor_version
        self.sqlos = SqlOs()
        self.counters = EnclaveCounters()
        # Per the paper, the VBS enclave creates an RSA key pair when loaded.
        # 1024 bits keeps simulated load times reasonable; the protocol is
        # key-size agnostic.
        self._rsa = RsaKeyPair.generate(1024)
        self._sessions: dict[int, SessionSecrets] = {}
        self._programs: dict[int, LoweredProgram] = {}
        self._program_handles: dict[bytes, int] = {}
        self._next_handle = itertools.count(1)
        # Enclave-held freshness state (rollback defense): survives host
        # crashes and disk restores because it lives in this trust domain.
        from repro.enclave.anchor import AnchorState

        self._anchor = AnchorState()
        self._observers: list[BoundaryObserver] = []
        # Live online-rotation pairs: cek name -> its partner. During the
        # mixed-key window an index over the rotating column holds
        # envelopes under both CEKs, and the comparison ecalls fall back
        # to the partner when the named CEK's MAC rejects a cell.
        self._rotation_partners: dict[str, str] = {}
        self._lock = threading.RLock()
        # Consume the sanctioned-surface registry: every declared entry
        # must actually exist, so the allowlist cannot drift from the code.
        from repro.enclave import ECALL_SURFACE

        for entry in ECALL_SURFACE.ecalls | ECALL_SURFACE.observable:
            if not hasattr(self, entry):
                raise EnclaveError(
                    f"ECALL_SURFACE declares {entry!r} but Enclave does not provide it"
                )

    # -- adversary-visible surface -------------------------------------------

    @property
    def public_key(self):
        """The enclave's RSA public key (visible; its hash is in the report)."""
        return self._rsa.public

    def add_boundary_observer(self, observer: BoundaryObserver) -> None:
        """Register a tap that sees every ecall's visible inputs/outputs."""
        self._observers.append(observer)

    def _observe(self, name: str, visible_inputs: tuple, visible_output: object) -> None:
        from repro.enclave import ECALL_SURFACE

        if name not in ECALL_SURFACE.ecalls:
            raise EnclaveError(
                f"boundary crossing {name!r} is not a declared ecall; add it to "
                "repro.enclave.ECALL_SURFACE if it is meant to be sanctioned"
            )
        self.counters.inc("ecalls")
        # The flight recorder sees only the ecall *name* — the same signal
        # the adversary gets from watching the boundary, never plaintext.
        record_event("enclave.ecall", name=name)
        for observer in self._observers:
            observer(name, visible_inputs, visible_output)

    def measure(self) -> EnclaveReport:
        """Produce the enclave report (host asks the hypervisor to measure)."""
        return EnclaveReport(
            author_id=self.binary.author_id,
            binary_hash=self.binary.binary_hash,
            enclave_version=self.binary.version,
            hypervisor_version=self.hypervisor_version,
            enclave_public_key_hash=self._rsa.public.fingerprint(),
        )

    # -- ecall: session / attestation -----------------------------------------

    def start_session(self, client_dh_public: int) -> tuple[int, int, bytes]:
        """DH half-exchange folded into attestation (Section 4.2).

        Returns ``(session_id, enclave_dh_public, signature)`` where the
        signature covers both DH public keys and is made with the enclave's
        RSA key — binding the exchange to the attested enclave identity.
        """
        dh = DiffieHellman()
        secret = dh.shared_secret(client_dh_public)
        session_id = next(_session_ids)
        with self._lock:
            self._sessions[session_id] = SessionSecrets(shared_secret=secret)
        message = (
            b"AE-DH-BINDING\x00"
            + public_key_bytes(dh.public_key)
            + public_key_bytes(client_dh_public)
        )
        signature = self._rsa.sign(message)
        self.counters.inc("sessions_started")
        self._observe(
            "start_session", (client_dh_public,), (session_id, dh.public_key)
        )
        return session_id, dh.public_key, signature

    # -- ecall: CEK installation ----------------------------------------------

    def install_package(self, session_id: int, sealed: SealedPackage) -> None:
        """Install CEKs (and DDL authorizations) from a sealed package."""
        fault_point("enclave.channel.recv", session_id=session_id)
        session = self._session(session_id)
        try:
            package = open_package(session.shared_secret, sealed)
        except (IntegrityError, CryptoError) as exc:
            raise EnclaveError(f"CEK package failed authentication: {exc}") from exc
        with self.sqlos.state_lock:
            # Nonce check under the state lock: replay and install are atomic.
            session_nonces = getattr(session, "_nonces", None)
            if session_nonces is None:
                from repro.enclave.nonce import NonceRangeTracker

                session_nonces = NonceRangeTracker()
                session._nonces = session_nonces  # type: ignore[attr-defined]
            try:
                session_nonces.check_and_add(package.nonce)
            except ReplayError:
                self.counters.inc("replays_rejected")
                raise
            for name, material in package.ceks:
                if not self.sqlos.has_key(name):
                    self.sqlos.install_key(name, material)
            for digest in package.authorized_query_hashes:
                session.authorized_query_hashes.add(digest)
        self.counters.inc("packages_installed")
        # Adversary sees only the opaque blob and the session id.
        self._observe("install_package", (session_id, sealed.blob), None)

    def installed_ceks(self) -> frozenset[str]:
        return self.sqlos.installed_keys()

    # -- ecall: expression registration & evaluation ---------------------------

    def register_program(self, program_bytes: bytes) -> int:
        """Validate and register a serialized CEsComp; returns a handle.

        Registration is idempotent per byte-identical program, matching the
        register-once / invoke-by-handle pattern in Section 3.
        """
        with self._lock:
            existing = self._program_handles.get(program_bytes)
            if existing is not None:
                return existing
            program = StackProgram.deserialize(program_bytes)
            validate_program(program, self.sqlos.installed_keys())
            lowered = StackMachine.lower(program)
            handle = next(self._next_handle)
            self._programs[handle] = lowered
            self._program_handles[program_bytes] = handle
        self.counters.inc("programs_registered")
        self._observe("register_program", (program_bytes,), handle)
        return handle

    def eval(self, handle: int, inputs: list[object]) -> list[object]:
        """Evaluate a registered program (Section 4.4.1 Eval interface)."""
        with self._lock:
            program = self._programs.get(handle)
        if program is None:
            raise EnclaveError(f"no registered program with handle {handle}")
        started = time.perf_counter()
        with _EcallCrypto(self) as crypto:
            outputs = StackMachine(crypto=crypto).eval(program, inputs, n_outputs=1)
        self.counters.inc("cpu_seconds", time.perf_counter() - started)
        self.counters.inc("evals")
        # The adversary sees the (ciphertext) inputs and the cleartext result.
        self._observe("eval", (handle, tuple(inputs)), tuple(outputs))
        return outputs

    def eval_batch(self, handle: int, rows: list[list[object]]) -> list[list[object]]:
        """Evaluate a registered program over many input rows in one ecall.

        The Section 4.6 amortization taken to its batched conclusion: one
        program lookup, one boundary crossing for the whole chunk. The
        single observation carries the per-row inputs and per-row outputs,
        so the adversary sees exactly the per-row verdicts it would have
        seen from row-at-a-time eval — batching amortizes cost, it neither
        hides nor adds information crossing the boundary in the clear.
        """
        with self._lock:
            program = self._programs.get(handle)
        if program is None:
            raise EnclaveError(f"no registered program with handle {handle}")
        started = time.perf_counter()
        outputs: list[list[object]] = []
        with _EcallCrypto(self) as crypto:
            vm = StackMachine(crypto=crypto)
            for index, inputs in enumerate(rows):
                fault_point("enclave.eval_batch", handle=handle, index=index, total=len(rows))
                outputs.append(vm.eval(program, inputs, n_outputs=1))
        self.counters.inc("cpu_seconds", time.perf_counter() - started)
        self.counters.inc("evals", len(rows))
        self.counters.inc("eval_batches")
        self.counters.inc("batched_rows", len(rows))
        self._observe(
            "eval_batch",
            (handle, tuple(tuple(inputs) for inputs in rows)),
            tuple(tuple(row_outputs) for row_outputs in outputs),
        )
        return outputs

    # -- ecall: dedicated comparison path for range indexes --------------------

    def begin_rotation(self, old_cek: str, new_cek: str) -> None:
        """Open the mixed-key comparison window for an online rotation.

        While a :class:`~repro.sqlengine.rotation.KeyRotationJob` sweeps a
        column, indexes keyed on it hold envelopes under both CEKs, so the
        comparison ecalls probe the partner CEK when the named one's MAC
        rejects a cell. Registration needs no query authorization: compare
        is already an open ecall over installed keys, and the pair only
        widens its MAC probe — no plaintext crosses the boundary that
        could not already.
        """
        with self._lock:
            self._rotation_partners[old_cek] = new_cek
            self._rotation_partners[new_cek] = old_cek

    def end_rotation(self, old_cek: str, new_cek: str) -> None:
        """Close the mixed-key window (terminal all-new reached)."""
        with self._lock:
            self._rotation_partners.pop(old_cek, None)
            self._rotation_partners.pop(new_cek, None)

    def _open(self, crypto: _EcallCrypto, cek_name: str, envelope: bytes) -> SqlScalar:
        """The plaintext of one operand, opened at most once per ecall.

        The CEK name is part of the key: a hit stands in for a MAC check, so
        it may only ever answer for the key that check ran under. A failing
        envelope raises before it is stored, so it fails again every time.
        """
        key = (cek_name, envelope)
        if key in crypto.plaintexts:
            return crypto.plaintexts[key]
        if cek_name not in crypto.partners:
            with self._lock:
                crypto.partners[cek_name] = self._rotation_partners.get(cek_name)
        partner = crypto.partners[cek_name]
        crypto.opens += 1
        value = deserialize_value(self._decrypt_for_compare(cek_name, envelope, partner))
        if len(crypto.plaintexts) < _MEMO_CAPACITY:
            crypto.plaintexts[key] = value
        return value

    def _decrypt_for_compare(self, cek_name: str, envelope: bytes, partner: str | None) -> bytes:
        """Decrypt under the named CEK, falling back to its live rotation
        partner — the one window in which two keys legitimately coexist."""
        if not self.sqlos.has_key(cek_name) and partner:
            # A session that only ever shipped the partner key can still
            # probe mid-rotation trees: the window names both keys.
            return self.sqlos.cipher_for(partner).decrypt(envelope)
        try:
            return self.sqlos.cipher_for(cek_name).decrypt(envelope)
        except IntegrityError:
            if not partner or not self.sqlos.has_key(partner):
                raise
            return self.sqlos.cipher_for(partner).decrypt(envelope)

    def compare(self, cek_name: str, left: Ciphertext, right: Ciphertext) -> int:
        """Three-way comparison of two ciphertexts under one CEK.

        This is the routed comparison of Section 3.1.2 (Figure 4): the
        enclave decrypts both operands and returns the ordering *in the
        clear*, which is exactly the ordering leakage Figure 5 attributes
        to RND comparisons.
        """
        started = time.perf_counter()
        with _EcallCrypto(self) as crypto:
            result = compare_values(
                self._open(crypto, cek_name, left.envelope),
                self._open(crypto, cek_name, right.envelope),
            )
        self.counters.inc("cpu_seconds", time.perf_counter() - started)
        self.counters.inc("comparisons")
        self._observe("compare", (cek_name, left, right), result)
        return result

    def compare_batch(
        self, cek_name: str, probe: Ciphertext, candidates: list[Ciphertext]
    ) -> list[int]:
        """Three-way compare ``probe`` against every candidate in one ecall.

        The probe — like any envelope the batch repeats — is opened once
        for the whole ecall. The observation carries every per-pair
        ordering verdict — the same cleartext results the adversary
        collects from single compares, in one crossing.
        """
        if not candidates:
            return []
        started = time.perf_counter()
        with _EcallCrypto(self) as crypto:
            probe_value = self._open(crypto, cek_name, probe.envelope)
            results = [
                compare_values(probe_value, self._open(crypto, cek_name, candidate.envelope))
                for candidate in candidates
            ]
        self.counters.inc("cpu_seconds", time.perf_counter() - started)
        self.counters.inc("comparisons", len(candidates))
        self.counters.inc("compare_batches")
        self._observe(
            "compare_batch", (cek_name, probe, tuple(candidates)), tuple(results)
        )
        return results

    # -- ecall: the gated encryption oracle (Section 3.2) -----------------------

    def encrypt_for_ddl(
        self,
        query_text: str,
        cek_name: str,
        serialized_plaintext: bytes,
        scheme: EncryptionScheme,
    ) -> Ciphertext:
        """Encrypt a value — only for a client-authorized DDL statement.

        SQL Server supplies the raw query text as its proof; the enclave
        hashes it and requires the hash to have been authorized by some
        attested session (the driver placed it inside a sealed package).
        """
        self._require_authorized(query_text, "Encrypt")
        cipher = self.sqlos.cipher_for(cek_name)
        envelope = cipher.encrypt(serialized_plaintext, scheme)
        self.counters.inc("cell_encrypts")
        self._observe("encrypt_for_ddl", (query_text, cek_name), None)
        return Ciphertext(envelope)

    def recrypt_for_ddl(
        self,
        query_text: str,
        old_cek: str,
        new_cek: str,
        ciphertext: Ciphertext,
        new_scheme: EncryptionScheme,
    ) -> Ciphertext:
        """Re-encrypt a cell from one CEK/scheme to another (key rotation /
        scheme conversion), gated on the same DDL authorization."""
        self._require_authorized(query_text, "Recrypt")
        old_cipher = self.sqlos.cipher_for(old_cek)
        new_cipher = self.sqlos.cipher_for(new_cek)
        plaintext = old_cipher.decrypt(ciphertext.envelope)
        envelope = new_cipher.encrypt(plaintext, new_scheme)
        self.counters.inc("cell_decrypts")
        self.counters.inc("cell_encrypts")
        self._observe("recrypt_for_ddl", (query_text, old_cek, new_cek), None)
        return Ciphertext(envelope)

    def recrypt_batch_for_ddl(
        self,
        query_text: str,
        old_cek: str,
        new_cek: str,
        ciphertexts: list[Ciphertext],
        new_scheme: EncryptionScheme,
    ) -> list[Ciphertext]:
        """Re-encrypt a batch of cells in one boundary crossing.

        The rotation job's inner loop: one authorization check, one
        cipher lookup per key, one ecall for the whole batch — the
        eval_batch amortization applied to the Section 2.4.2 rotation
        path. Plaintext exists only transiently inside the loop; the
        single observation carries only key names and the batch size.

        Cells already under ``new_cek`` pass through unchanged, which
        makes a resumed rotation idempotent: after a crash the job may
        replay a batch whose tail was already converted. A cell under
        *neither* key is tampering and still raises — every cell must
        verify under exactly one of the two keys.
        """
        self._require_authorized(query_text, "Recrypt")
        old_cipher = self.sqlos.cipher_for(old_cek)
        new_cipher = self.sqlos.cipher_for(new_cek)
        started = time.perf_counter()
        outputs: list[Ciphertext] = []
        for index, ciphertext in enumerate(ciphertexts):
            fault_point(
                "enclave.recrypt_batch", index=index, total=len(ciphertexts)
            )
            try:
                plaintext = old_cipher.decrypt(ciphertext.envelope)
            except IntegrityError:
                # Not under the old key — must verify under the new one.
                new_cipher.decrypt(ciphertext.envelope)
                outputs.append(ciphertext)
                continue
            outputs.append(Ciphertext(new_cipher.encrypt(plaintext, new_scheme)))
        self.counters.inc("cpu_seconds", time.perf_counter() - started)
        self.counters.inc("cell_decrypts", len(ciphertexts))
        self.counters.inc("cell_encrypts", len(ciphertexts))
        self._observe(
            "recrypt_batch_for_ddl",
            (query_text, old_cek, new_cek, len(ciphertexts)),
            None,
        )
        return outputs

    def decrypt_for_ddl(self, query_text: str, cek_name: str, ciphertext: Ciphertext) -> bytes:
        """Decrypt a cell for a client-authorized decryption DDL.

        Turning encryption *off* (ALTER COLUMN back to plaintext) exposes
        plaintext to the server by definition; like Encrypt, it is gated on
        an explicit client-authorized query text.
        """
        self._require_authorized(query_text, "Decrypt")
        cipher = self.sqlos.cipher_for(cek_name)
        plaintext = cipher.decrypt(ciphertext.envelope)
        self.counters.inc("cell_decrypts")
        self._observe("decrypt_for_ddl", (query_text, cek_name), None)
        return plaintext

    # -- ecall: the freshness anchor (rollback defense) -------------------------

    def anchor_attach(
        self,
        pages: dict[int, bytes],
        chain_lsn: int,
        chain_digest: bytes,
        base_lsn: int = 0,
        base_digest: bytes = b"\x00" * 32,
        cek_versions: dict[str, int] | None = None,
    ) -> int:
        """Seed the enclave-held freshness anchor from current durable state.

        None of these ecalls take the enclave session lock: the anchor has
        its own innermost latch (see :mod:`repro.enclave.anchor`) because
        advances run under the buffer pool's write-back latch.
        """
        epoch = self._anchor.attach(
            pages, chain_lsn, chain_digest, base_lsn, base_digest, cek_versions
        )
        self._observe("anchor_attach", (chain_lsn, chain_digest), epoch)
        return epoch

    def anchor_advance(
        self,
        chain_lsn: int | None = None,
        chain_digest: bytes | None = None,
        page_id: int | None = None,
        page_digest: bytes | None = None,
    ) -> int:
        """Advance the anchor: a new WAL chain head and/or a page version."""
        epoch = self._anchor.epoch
        if page_id is not None and page_digest is not None:
            epoch = self._anchor.advance_page(page_id, page_digest)
        if chain_lsn is not None and chain_digest is not None:
            epoch = self._anchor.advance_wal(chain_lsn, chain_digest)
        self._observe(
            "anchor_advance", (chain_lsn, chain_digest, page_id, page_digest), epoch
        )
        return epoch

    def anchor_confirm(self, page_id: int) -> None:
        """Confirm the disk write behind the page's latest advance landed."""
        self._anchor.confirm_page(page_id)
        self._observe("anchor_confirm", (page_id,), None)

    def anchor_cek_version(self, cek_name: str, version: int) -> int:
        """Witness a completed CEK rotation (monotonic per key)."""
        epoch = self._anchor.advance_cek_version(cek_name, version)
        self._observe("anchor_cek_version", (cek_name, version), epoch)
        return epoch

    def anchor_verify(
        self,
        base_lsn: int,
        base_digest: bytes,
        record_blobs: list[bytes],
        page_digests: dict[int, bytes],
        torn_page_ids: set[int],
        cek_versions: dict[str, int] | None = None,
    ):
        """Recovery-time freshness check; returns an ``AnchorVerdict``."""
        verdict = self._anchor.verify(
            base_lsn,
            base_digest,
            record_blobs,
            page_digests,
            torn_page_ids,
            cek_versions,
        )
        self._observe(
            "anchor_verify", (base_lsn, len(record_blobs), len(page_digests)), verdict
        )
        return verdict

    def anchor_truncate(self, base_lsn: int, base_digest: bytes) -> int:
        """Seal the current chain head as the new truncation base."""
        epoch = self._anchor.seal_base(base_lsn, base_digest)
        self._observe("anchor_truncate", (base_lsn, base_digest), epoch)
        return epoch

    def anchor_status(self) -> dict:
        """Epoch / head / pages-root metadata (adversary-visible)."""
        status = self._anchor.status()
        self._observe("anchor_status", (), status)
        return status

    def _require_authorized(self, query_text: str, operation: str) -> None:
        digest = hashlib.sha256(query_text.encode("utf-8")).digest()
        with self._lock:
            authorized = any(
                digest in session.authorized_query_hashes
                for session in self._sessions.values()
            )
        if not authorized:
            raise EnclaveError(
                f"{operation} refused: no client authorized this query text "
                "(the enclave's encryption oracle is client-gated)"
            )

    # -- internals --------------------------------------------------------------

    def _session(self, session_id: int) -> SessionSecrets:
        with self._lock:
            try:
                return self._sessions[session_id]
            except KeyError:
                raise EnclaveError(f"unknown enclave session {session_id}") from None
