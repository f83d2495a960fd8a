"""Host-side freshness coordination (rollback defense).

The *trusted* state — epoch counter, WAL chain head, page version map —
lives in an anchor backend inside a trust root the host cannot rewrite:
the VBS enclave (through the declared ``anchor_*`` ecalls) or a
simulated TPM NV slot (:class:`repro.attestation.tpm.TpmNvAnchor`) for
enclave-less DET deployments. This module is the untrusted glue:

* :class:`FreshnessAnchor` wires itself into a
  :class:`~repro.sqlengine.engine.StorageEngine`: the WAL's
  ``flush_hook`` reports each new chain head, the buffer pool's
  ``page_write_hook`` reports each page image digest immediately before
  the disk write, and recovery calls :meth:`verify_recovery` before
  trusting anything on disk;
* :class:`EnclaveAnchorBackend` adapts the backend protocol onto the
  sanctioned enclave ecall surface (the only names the trust-boundary
  analyzer permits on an enclave receiver).

Ordering is what makes detection sound with **zero false positives**
under the crash-torture matrix: the WAL flush completes before its
advance (a crash in between leaves an *unanchored suffix*, tolerated and
re-anchored at the next verify), and a page advance lands before its
disk write with a *confirmation* after it — pages whose writes were
never confirmed may still show their previous version at recovery.
Torn pages are exempt — recovery drops and redoes them from the
verified WAL.

Paper mode is pinned: with no anchor configured (the default), none of
these hooks exist and recovery behaves exactly as before.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

from repro.errors import StaleRestoreError
from repro.faults.registry import fault_site

if TYPE_CHECKING:
    from repro.sqlengine.engine import StorageEngine
    from repro.sqlengine.storage.wal import WriteAheadLog

_ADVANCE = fault_site("freshness.advance")
_VERIFY = fault_site("freshness.verify")


def page_digest(image: bytes) -> bytes:
    """The version digest of one page image (over ciphertext bytes)."""
    return hashlib.sha256(image).digest()


class EnclaveAnchorBackend:
    """Backend adapter over the enclave's sanctioned ``anchor_*`` ecalls."""

    def __init__(self, enclave):
        self._enclave = enclave

    def anchor_attach(
        self, pages, chain_lsn, chain_digest, base_lsn, base_digest, cek_versions=None
    ):
        return self._enclave.anchor_attach(
            pages, chain_lsn, chain_digest, base_lsn, base_digest, cek_versions
        )

    def anchor_advance(self, **kwargs):
        return self._enclave.anchor_advance(**kwargs)

    def anchor_confirm(self, page_id):
        return self._enclave.anchor_confirm(page_id)

    def anchor_cek_version(self, cek_name, version):
        return self._enclave.anchor_cek_version(cek_name, version)

    def anchor_verify(
        self, base_lsn, base_digest, blobs, page_digests, torn, cek_versions=None
    ):
        return self._enclave.anchor_verify(
            base_lsn, base_digest, blobs, page_digests, torn, cek_versions
        )

    def anchor_truncate(self, base_lsn, base_digest):
        return self._enclave.anchor_truncate(base_lsn, base_digest)

    def anchor_status(self):
        return self._enclave.anchor_status()


class FreshnessAnchor:
    """Wires an anchor backend into the engine's durability path.

    ``backend`` is anything exposing the ``anchor_*`` protocol:
    :class:`EnclaveAnchorBackend` or
    :class:`repro.attestation.tpm.TpmNvAnchor`.
    """

    def __init__(self, backend):
        self._backend = backend
        self._engine: "StorageEngine | None" = None

    @property
    def backend(self):
        return self._backend

    # -- wiring ------------------------------------------------------------

    def attach_engine(self, engine: "StorageEngine") -> int:
        """Hook the WAL and buffer pool, then seed the anchor.

        Whatever is durable at attach time becomes the trusted present;
        every later flush and write-back advances the anchor.
        """
        self._engine = engine
        engine.wal.flush_hook = self._on_wal_flush
        engine.pool.page_write_hook = self._on_page_write
        engine.pool.page_wrote_hook = self._on_page_wrote
        return self.rebaseline()

    def rebaseline(self) -> int:
        """Re-seed the anchor from the engine's current durable state.

        Used at attach, and by the operator's explicit
        ``accept_restored_state`` — the one sanctioned way to make a
        detected stale restore the new trusted present.
        """
        engine = self._engine
        assert engine is not None, "attach_engine first"
        pages = {
            pid: page_digest(engine.disk.read_page(pid))
            for pid in engine.disk.page_ids()
        }
        chain_lsn, chain_digest = engine.wal.chain_state()
        base_lsn, base_digest = engine.wal.chain_base()
        return self._backend.anchor_attach(
            pages,
            chain_lsn,
            chain_digest,
            base_lsn,
            base_digest,
            engine.catalog.cek_versions(),
        )

    # -- advance hooks -----------------------------------------------------

    def _on_wal_flush(self, flushed_lsn: int, chain_digest: bytes) -> None:
        if _ADVANCE.armed:
            _ADVANCE.fire(lsn=flushed_lsn)
        self._backend.anchor_advance(
            chain_lsn=flushed_lsn, chain_digest=chain_digest
        )

    def _on_page_write(self, page_id: int, image: bytes) -> None:
        if _ADVANCE.armed:
            _ADVANCE.fire(page_id=page_id)
        self._backend.anchor_advance(
            page_id=page_id, page_digest=page_digest(image)
        )

    def _on_page_wrote(self, page_id: int) -> None:
        self._backend.anchor_confirm(page_id)

    def witness_cek_version(self, cek_name: str, version: int) -> int:
        """Report a completed CEK rotation to the trust root.

        Called *after* the catalog's version bump is durable (ROTATE_END
        flushed), so a crash in between leaves the catalog ahead of the
        anchor — adopted at the next verify, never a false positive.
        """
        if _ADVANCE.armed:
            _ADVANCE.fire(cek_name=cek_name, version=version)
        return self._backend.anchor_cek_version(cek_name, version)

    # -- recovery ----------------------------------------------------------

    def verify_recovery(
        self,
        wal: "WriteAheadLog",
        page_digests: dict[int, bytes],
        torn_page_ids: set[int],
        cek_versions: dict[str, int] | None = None,
    ):
        """Check the durable state against the anchor; raise on rollback.

        Returns the backend's verdict on success; raises
        :class:`~repro.errors.StaleRestoreError` when the presented
        WAL/pages are old — internally consistent, every ciphertext
        valid, and still not the present.
        """
        if _VERIFY.armed:
            _VERIFY.fire()
        base_lsn, base_digest = wal.chain_base()
        verdict = self._backend.anchor_verify(
            base_lsn,
            base_digest,
            wal.durable_chain_blobs(),
            page_digests,
            torn_page_ids,
            cek_versions,
        )
        if not verdict.ok:
            raise StaleRestoreError(verdict.describe())
        return verdict

    def seal_truncation(self, wal: "WriteAheadLog") -> int:
        """Seal the flushed horizon as the new chain base before truncation."""
        chain_lsn, chain_digest = wal.chain_state()
        return self._backend.anchor_truncate(chain_lsn + 1, chain_digest)

    def status(self) -> dict:
        return self._backend.anchor_status()
