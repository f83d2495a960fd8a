"""Unit tests for the freshness anchor's building blocks.

The torture and differential suites exercise the end-to-end rollback
story; these tests pin the pieces in isolation — the WAL's incremental
chain cache, the anchor's monotonic advance discipline, the in-flight
page-write tolerance, the Merkle status surface, the crash semantics of
the volatile log tail, and the ecall surface the enclave exposes.
"""

from __future__ import annotations

import pytest

from repro.attestation.tpm import TpmNvAnchor
from repro.enclave.anchor import GENESIS, AnchorMismatch, AnchorState, merkle_root
from repro.enclave.runtime import Enclave
from repro.sqlengine.catalog import TableSchema, plain_column
from repro.sqlengine.engine import StorageEngine
from repro.sqlengine.storage.freshness import (
    EnclaveAnchorBackend,
    FreshnessAnchor,
    page_digest,
)
from repro.sqlengine.storage.wal import (
    CHAIN_GENESIS,
    LogOp,
    WriteAheadLog,
    chain_fold,
    encode_record,
)

D1 = b"\x11" * 32
D2 = b"\x22" * 32
D3 = b"\x33" * 32


def _filled_wal(n: int = 5, flush_every: int = 2) -> WriteAheadLog:
    wal = WriteAheadLog()
    for i in range(n):
        wal.append(i % 3, LogOp.INSERT, table="t", after=bytes([i]))
        if (i + 1) % flush_every == 0:
            wal.flush()
    return wal


class TestWalChainCache:
    def test_incremental_chain_matches_recomputation(self):
        wal = _filled_wal(n=7, flush_every=2)
        wal.flush()
        chain_lsn, chain_digest = wal.chain_state()
        digest = CHAIN_GENESIS
        for record in wal.records(durable_only=True):
            digest = chain_fold(digest, encode_record(record))
        assert chain_lsn == wal.flushed_lsn
        assert chain_digest == digest

    def test_chain_covers_only_the_durable_prefix(self):
        wal = _filled_wal(n=4, flush_every=2)
        wal.append(9, LogOp.COMMIT, table="t")  # appended, never flushed
        chain_lsn, __ = wal.chain_state()
        assert chain_lsn == wal.flushed_lsn == 3

    def test_truncation_base_digest_seeds_future_folds(self):
        wal = _filled_wal(n=6, flush_every=1)
        records = wal.records(durable_only=True)
        expected_base = CHAIN_GENESIS
        for record in records[:3]:
            expected_base = chain_fold(expected_base, encode_record(record))
        wal.truncate_before(3)
        base_lsn, base_digest = wal.chain_base()
        assert (base_lsn, base_digest) == (3, expected_base)
        # The full chain digest is unchanged: same history, cached fold.
        head_digest = base_digest
        for record in records[3:]:
            head_digest = chain_fold(head_digest, encode_record(record))
        assert wal.chain_state() == (5, head_digest)

    def test_drop_unflushed_loses_the_volatile_tail_and_reuses_lsns(self):
        wal = _filled_wal(n=4, flush_every=2)
        wal.append(7, LogOp.COMMIT, table="t")
        assert wal.size() == 5
        lost = wal.drop_unflushed()
        assert lost == 1
        assert wal.size() == 4
        replacement = wal.append(8, LogOp.ABORT, table="t")
        assert replacement.lsn == 4  # the torn slot is rewritten


class TestAnchorAdvanceDiscipline:
    def test_older_head_is_ignored_equal_conflict_rejected(self):
        anchor = AnchorState()
        anchor.attach({}, chain_lsn=-1, chain_digest=GENESIS)
        anchor.advance_wal(5, D1)
        anchor.advance_wal(3, D2)  # stale delivery: ignored
        assert (anchor.chain_lsn, anchor.chain_digest) == (5, D1)
        anchor.advance_wal(5, D1)  # idempotent redelivery: fine
        with pytest.raises(AnchorMismatch):
            anchor.advance_wal(5, D2)

    def test_epoch_is_monotonic_across_all_advance_kinds(self):
        anchor = AnchorState()
        epochs = [anchor.attach({}, -1, GENESIS)]
        epochs.append(anchor.advance_wal(0, D1))
        epochs.append(anchor.advance_page(0, D2))
        anchor.advance_wal(1, D3)
        epochs.append(anchor.epoch)
        assert epochs == sorted(epochs)
        assert len(set(epochs)) == len(epochs)

    def test_truncation_seals_only_the_anchored_head(self):
        anchor = AnchorState()
        anchor.attach({}, chain_lsn=4, chain_digest=D1)
        with pytest.raises(AnchorMismatch):
            anchor.seal_base(4, D1)  # not one past the head
        with pytest.raises(AnchorMismatch):
            anchor.seal_base(5, D2)  # wrong digest
        anchor.seal_base(5, D1)
        assert (anchor.base_lsn, anchor.base_digest) == (5, D1)


class TestInflightPageTolerance:
    def _anchored_page(self):
        anchor = AnchorState()
        anchor.attach({0: D1}, chain_lsn=-1, chain_digest=GENESIS)
        return anchor

    def test_unconfirmed_write_tolerates_the_previous_version(self):
        anchor = self._anchored_page()
        anchor.advance_page(0, D2)  # write never lands (no confirm)
        verdict = anchor.verify(0, GENESIS, [], {0: D1}, set())
        assert verdict.ok, verdict.describe()
        # On success the map re-anchors to disk reality: the old version
        # is now the trusted one, and a second verify still passes.
        assert anchor.verify(0, GENESIS, [], {0: D1}, set()).ok

    def test_confirmed_write_makes_the_previous_version_stale(self):
        anchor = self._anchored_page()
        anchor.advance_page(0, D2)
        anchor.confirm_page(0)
        verdict = anchor.verify(0, GENESIS, [], {0: D1}, set())
        assert not verdict.ok
        assert "page.stale:0" in verdict.violations

    def test_repeated_unconfirmed_advances_keep_the_oldest_fallback(self):
        anchor = self._anchored_page()
        anchor.advance_page(0, D2)  # fails on disk, engine survives
        anchor.advance_page(0, D3)  # retried write, also never lands
        assert anchor.verify(0, GENESIS, [], {0: D1}, set()).ok

    def test_never_landed_first_write_may_be_absent(self):
        anchor = AnchorState()
        anchor.attach({}, chain_lsn=-1, chain_digest=GENESIS)
        anchor.advance_page(7, D1)  # brand-new page, write never lands
        assert anchor.verify(0, GENESIS, [], {}, set()).ok

    def test_torn_pages_are_exempt_and_forgotten(self):
        anchor = self._anchored_page()
        verdict = anchor.verify(0, GENESIS, [], {}, {0})
        assert verdict.ok
        # Forgotten: a later verify without the page must not flag it.
        assert anchor.verify(0, GENESIS, [], {}, set()).ok


class TestStatusSurface:
    def test_merkle_root_tracks_the_page_map(self):
        anchor = AnchorState()
        anchor.attach({}, -1, GENESIS)
        empty_root = anchor.status()["pages_root"]
        assert empty_root == GENESIS
        anchor.advance_page(0, D1)
        one = anchor.status()["pages_root"]
        anchor.advance_page(1, D2)
        two = anchor.status()["pages_root"]
        assert len({empty_root, one, two}) == 3

    def test_merkle_root_odd_leaf_promotion(self):
        a, b, c = D1, D2, D3
        assert merkle_root([a]) == a
        assert merkle_root([a, b, c]) != merkle_root([a, b])

    def test_status_reports_head_and_epoch(self):
        backend = TpmNvAnchor()
        backend.anchor_attach({}, -1, GENESIS, 0, GENESIS)
        backend.anchor_advance(chain_lsn=2, chain_digest=D1)
        status = backend.anchor_status()
        assert status["attached"] and status["chain_lsn"] == 2
        assert status["epoch"] == backend.epoch


class TestEngineWiring:
    def test_paper_mode_default_has_no_hooks_and_no_verification(self):
        engine = StorageEngine(ctr_enabled=False)
        assert engine.freshness is None
        assert engine.wal.flush_hook is None
        assert engine.pool.page_write_hook is None
        engine.create_table(
            TableSchema(
                name="t",
                columns=[plain_column("k", "INT", nullable=False)],
                primary_key=("k",),
            )
        )
        engine.crash()
        report = engine.recover()
        assert not report.freshness_verified
        assert report.anchor_epoch is None

    def test_attach_engine_wires_every_hook(self):
        anchor = FreshnessAnchor(TpmNvAnchor())
        engine = StorageEngine(ctr_enabled=False, freshness=anchor)
        assert engine.wal.flush_hook is not None
        assert engine.pool.page_write_hook is not None
        assert engine.pool.page_wrote_hook is not None
        assert anchor.status()["attached"]

    def test_enclave_backend_crossings_are_observed_ecalls(self, enclave_binary):
        enclave = Enclave(enclave_binary)
        seen: list[str] = []
        enclave.add_boundary_observer(
            lambda name, inputs, output: seen.append(name)
        )
        backend = EnclaveAnchorBackend(enclave)
        backend.anchor_attach({}, -1, GENESIS, 0, GENESIS)
        backend.anchor_advance(chain_lsn=0, chain_digest=D1)
        backend.anchor_confirm(3)
        backend.anchor_status()
        assert seen == [
            "anchor_attach",
            "anchor_advance",
            "anchor_confirm",
            "anchor_status",
        ]

    def test_page_digest_is_over_the_image_bytes(self):
        import hashlib

        assert page_digest(b"abc") == hashlib.sha256(b"abc").digest()


class TestAnchorCrossingsAreCounted:
    """What the anchor costs the write path, as counts (the wall-clock side
    is the ``anchor`` experiment of ``python -m repro.harness``)."""

    def test_one_advance_per_wal_flush_and_an_advance_confirm_pair_per_page(self):
        from repro.obs.metrics import get_registry
        from repro.workloads.tpcc import EncryptionMode, TpccConfig, build_system

        system = build_system(
            TpccConfig(1, 1, 8, 12, mode=EncryptionMode.RND), freshness_anchor=True
        )
        crossings: list[str] = []
        system.server.enclave.add_boundary_observer(
            lambda name, inputs, output: name.startswith("anchor_") and crossings.append(name)
        )
        registry = get_registry()

        def moved(work) -> tuple[int, int]:
            """(WAL flushes, pages written back) while ``work`` ran."""
            names = ("wal.flushes", "bufferpool.pages_flushed")
            before = [registry.value(name) for name in names]
            crossings.clear()
            work()
            return tuple(registry.value(name) - b for name, b in zip(names, before))

        try:
            system.transactions.rng.seed(20_000)
            flushes, pages = moved(system.transactions.payment)
            assert (flushes, pages) == (1, 0)           # the commit's flush
            assert crossings == ["anchor_advance"]

            flushes, pages = moved(system.server.engine.checkpoint)
            assert pages > 0
            assert crossings.count("anchor_confirm") == pages
            assert crossings.count("anchor_advance") == pages + flushes
            assert set(crossings) == {"anchor_advance", "anchor_confirm"}
        finally:
            system.shutdown()
