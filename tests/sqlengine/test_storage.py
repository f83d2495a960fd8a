"""Pages, records, heap files, buffer pool, and the WAL."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SqlError
from repro.sqlengine.catalog import TableSchema, plain_column
from repro.sqlengine.cells import Ciphertext
from repro.sqlengine.engine import StorageEngine
from repro.sqlengine.storage import page as page_module
from repro.sqlengine.storage.bufferpool import BufferPool
from repro.sqlengine.storage.disk import Disk
from repro.sqlengine.storage.heap import HeapFile, RowId
from repro.sqlengine.storage.page import PAGE_SIZE, Page
from repro.sqlengine.storage.record import deserialize_row, is_decoded_form, serialize_row
from repro.sqlengine.storage.wal import LogOp, WriteAheadLog


def same_cells(row: tuple, decoded: tuple) -> bool:
    """Cell for cell *and type for type*: ``True == 1`` and a ``bytearray``
    equals its ``bytes``, but neither is what decoding returns."""
    return row == decoded and [type(c) for c in row] == [type(c) for c in decoded]


class TestRecord:
    def test_roundtrip_mixed_row(self):
        row = (1, "text", None, b"bytes", 3.5, True, Ciphertext(b"\x01" * 70))
        assert deserialize_row(serialize_row(row)) == row

    def test_empty_row(self):
        assert deserialize_row(serialize_row(())) == ()

    def test_ciphertext_survives_as_ciphertext(self):
        row = deserialize_row(serialize_row((Ciphertext(b"abc"),)))
        assert isinstance(row[0], Ciphertext)

    def test_malformed_rejected(self):
        with pytest.raises(SqlError):
            deserialize_row(b"\x00\x05\x01")

    row_strategy = st.tuples(
        st.one_of(st.none(), st.integers(-100, 100), st.text(max_size=20)),
        st.one_of(st.none(), st.binary(max_size=20)),
        st.booleans(),
    )

    @given(row_strategy)
    @settings(max_examples=50, deadline=None)
    def test_property_roundtrip(self, row):
        assert deserialize_row(serialize_row(row)) == row


    def test_decoded_form_is_by_exact_type(self):
        row = (1, "text", None, b"bytes", 3.5, True, Ciphertext(b"\x01" * 70))
        assert is_decoded_form(row) and is_decoded_form(deserialize_row(serialize_row(row)))
        for near_miss in ((bytearray(b"b"),), [1, "a"], None):
            assert not is_decoded_form(near_miss)
        # The near miss the engine accepts: VARBINARY takes a bytearray.
        decoded = deserialize_row(serialize_row((bytearray(b"b"),)))
        assert decoded == (bytearray(b"b"),) and type(decoded[0]) is bytes


class TestPage:
    def test_insert_read(self):
        page = Page(1)
        slot = page.insert(b"record")
        assert page.read(slot) == b"record"

    def test_delete_leaves_tombstone_stable_slots(self):
        page = Page(1)
        s0 = page.insert(b"a")
        s1 = page.insert(b"b")
        page.delete(s0)
        assert page.read(s1) == b"b"
        assert page.row_or_none(s0) is None

    def test_tombstone_reused(self):
        page = Page(1)
        s0 = page.insert(b"a")
        page.delete(s0)
        assert page.insert(b"c") == s0

    def test_serialization_roundtrip(self):
        page = Page(7)
        page.insert(b"alpha")
        s = page.insert(b"beta")
        page.delete(s)
        page.insert(b"gamma")
        restored = Page.from_bytes(page.to_bytes())
        assert restored.page_id == 7
        assert restored.slots() == page.slots()

    def test_image_is_page_size(self):
        page = Page(1)
        page.insert(b"x")
        assert len(page.to_bytes()) == PAGE_SIZE

    def test_overflow_rejected(self):
        page = Page(1)
        with pytest.raises(SqlError):
            page.insert(b"x" * PAGE_SIZE)

    def test_update_and_delete_hand_back_the_replaced_record(self):
        page = Page(1)
        slot = page.insert(b"old")
        assert page.update(slot, b"new") == b"old"
        assert page.delete(slot) == b"new"

    def test_overflowing_update_leaves_the_slot_as_it_was(self):
        page = Page(1)
        slot = page.insert(b"small")
        page.insert(b"x" * (page.free_space() - 200))
        with pytest.raises(SqlError):
            page.update(slot, b"y" * 400)
        assert page.read(slot) == b"small"
        assert len(page.to_bytes()) == PAGE_SIZE

    def test_insert_at_for_redo(self):
        page = Page(1)
        page.insert_at(5, b"redone")
        assert page.read(5) == b"redone"
        assert page.row_or_none(3) is None


    def test_a_row_is_decoded_once_per_residency(self, monkeypatch):
        decodes = []
        monkeypatch.setattr(
            page_module,
            "deserialize_row",
            lambda record: decodes.append(record) or deserialize_row(record),
        )
        page = Page(1)
        handed = page.insert(serialize_row((1, "a")), (1, "a"))
        bytes_only = page.insert(serialize_row((2, "b")))
        assert page.row(handed) == (1, "a") and decodes == []       # the writer's tuple
        assert page.row(bytes_only) == page.row_or_none(bytes_only) == (2, "b")
        assert page.rows() == [(handed, (1, "a")), (bytes_only, (2, "b"))]
        assert len(decodes) == 1                                    # first touch only
        page.insert_at(handed, serialize_row((3, "c")))             # undo, redo: bytes alone
        page.update(bytes_only, serialize_row((4, "d")))
        assert page.rows() == [(handed, (3, "c")), (bytes_only, (4, "d"))]
        assert len(decodes) == 3
        # A loaded image — restored snapshot, reload after eviction — and a
        # reformatted page start with no rows: the image is records alone.
        reloaded = Page.from_bytes(page.to_bytes())
        assert reloaded.rows() == page.rows() and len(decodes) == 5
        assert Page(1).rows() == [] and Page(1).row_or_none(0) is None
        with pytest.raises(SqlError):
            page.row(7)

    page_ops = st.lists(
        st.tuples(
            st.sampled_from(["insert", "insert_row", "insert_at", "update", "delete", "reload"]),
            st.integers(0, 11),
            st.tuples(
                st.integers(-5, 5),
                st.one_of(st.none(), st.text(max_size=12), st.binary(max_size=12)),
                st.booleans(),
            ),
        ),
        max_size=40,
    )

    @given(page_ops)
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_property_bookkeeping_and_rows_follow_the_records(self, ops):
        page = Page(3)
        for op, slot, row in ops:
            record = serialize_row(row)
            live = slot in dict(page.slots())
            if op == "insert":
                page.insert(record)
            elif op == "insert_row":
                page.insert(record, row)
            elif op == "insert_at":
                page.insert_at(slot, record)
            elif op == "update" and live:
                page.update(slot, record, row if row[0] % 2 else None)
            elif op == "delete" and live:
                page.delete(slot)
            elif op == "reload":
                image = page.to_bytes()
                page = Page.from_bytes(image)
                assert page.to_bytes() == image
            # The running count is the sum over slots the page used to redo per call.
            assert page.free_space() == PAGE_SIZE - len(_unpadded(page))
            assert page.can_fit(b"x" * (page.free_space() - 4))
            assert not page.can_fit(b"x" * (page.free_space() - 3))
            for live_slot, live_record in page.slots():
                decoded = deserialize_row(live_record)
                assert same_cells(page.row(live_slot), decoded)
                assert same_cells(page.row_or_none(live_slot), decoded)
            assert [s for s, __ in page.rows()] == [s for s, __ in page.slots()]


def _unpadded(page: Page) -> bytes:
    """The page image without its zero padding: header, slot lengths, records."""
    image = page.to_bytes()
    end = 10
    for __ in range(int.from_bytes(image[4:6], "big")):
        length = int.from_bytes(image[end : end + 4], "big")
        end += 4 + (0 if length == 0xFFFFFFFF else length)
    return image[:end]


class TestHeap:
    @pytest.fixture()
    def heap(self):
        return HeapFile("t", BufferPool(Disk(), capacity=4))

    def test_insert_read_update_delete(self, heap):
        rid = heap.insert(serialize_row((1, "a")))
        assert heap.read(rid) == (1, "a")
        assert heap.update(rid, serialize_row((1, "b"))) == serialize_row((1, "a"))
        assert heap.read(rid) == (1, "b")
        assert heap.delete(rid) == serialize_row((1, "b"))
        assert heap.read_or_none(rid) is None

    def test_scan_sees_all_live_rows(self, heap):
        rids = [heap.insert(serialize_row((i,))) for i in range(50)]
        heap.delete(rids[10])
        rows = {row[0] for __, row in heap.scan()}
        assert rows == set(range(50)) - {10}

    def test_rows_spill_across_pages(self, heap):
        big = "x" * 2000
        for i in range(20):
            heap.insert(serialize_row((i, big)))
        assert len(heap.page_ids) > 1
        assert heap.row_count() == 20

    def test_foreign_rid_rejected(self, heap):
        with pytest.raises(SqlError):
            heap.read(RowId(999, 0))


class TestRowsFollowTheRecords:
    """Whatever wrote a slot last — engine DML, rollback, physical redo, a
    reload — every read returns what decoding the slot's record returns."""

    GROWN = "g" * 5000          # two of these do not share a page: relocate-on-grow

    steps = st.lists(
        st.tuples(
            st.sampled_from(
                ["write", "write", "write", "grow", "grow", "delete", "insert_at",
                 "checkpoint", "crash", "restore", "tear"]
            ),
            st.integers(0, 4),
            st.one_of(st.none(), st.text(max_size=8)),
            st.one_of(st.none(), st.binary(max_size=8), st.binary(max_size=8).map(bytearray)),
            st.booleans(),
        ),
        min_size=12,
        max_size=30,
    )

    @staticmethod
    def build() -> StorageEngine:
        # Four pages: eviction, write-back and reload happen mid-sequence.
        engine = StorageEngine(lock_timeout_s=0.05, ctr_enabled=False, buffer_pool_pages=4)
        engine.create_table(
            TableSchema(
                name="t",
                columns=[
                    plain_column("k", "INT", nullable=False),
                    plain_column("v", "VARCHAR", 5000),
                    plain_column("b", "VARBINARY", 16),
                ],
                primary_key=("k",),
            )
        )
        return engine

    @staticmethod
    def check(engine: StorageEngine) -> None:
        heap = engine.table("t").heap
        decoded = {}
        for page_id in heap.page_ids:
            for slot, record in engine.pool.get(page_id).slots():
                decoded[RowId(page_id, slot)] = deserialize_row(record)
        for rid, expected in decoded.items():
            assert same_cells(heap.read(rid), expected)
            assert same_cells(heap.read_or_none(rid), expected)
            assert heap.read(rid) is heap.read_or_none(rid)      # readers share one tuple
        scanned = list(heap.scan())
        assert [rid for rid, __ in scanned] == list(decoded)
        assert all(same_cells(row, decoded[rid]) for rid, row in scanned)
        assert engine.verify_index_consistency() == []

    @given(steps)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_property_every_read_is_what_decoding_the_record_returns(self, steps):
        engine = self.build()
        backup = None
        for op, key, text, blob, commit in steps:
            found = engine.table("t").indexes["pk_t"].tree.search_eq((key,))
            if op in ("write", "grow", "delete"):
                if op == "delete" and not found:
                    continue
                row = (key, self.GROWN if op == "grow" else text, blob)
                txn = engine.begin()
                if op == "delete":
                    engine.delete(txn, "t", found[0])
                elif found:
                    engine.update(txn, "t", found[0], row)
                else:
                    engine.insert(txn, "t", row)
                self.check(engine)                  # before the outcome, too
                engine.commit(txn) if commit else engine.abort(txn)
            elif op == "insert_at" and found:
                # Physical placement over a live slot, as redo does it.
                heap = engine.table("t").heap
                heap.insert_at(found[0], serialize_row((key, text, bytes(blob or b""))))
            elif op == "checkpoint":
                engine.checkpoint()
                backup = (engine.disk.snapshot_pages(), engine.wal.snapshot_state())
            elif op == "crash":
                engine.crash()
                engine.recover()
            elif op == "restore" and backup is not None:
                engine.disk.restore_pages(backup[0], replace=True)
                engine.wal.restore_state(backup[1])
                engine.crash()
                engine.recover()
            elif op == "tear" and engine.disk.page_ids():
                torn = engine.disk.page_ids()[key % len(engine.disk.page_ids())]
                engine.disk.write_page(torn, engine.disk.read_page(torn)[:-1] + b"\xff")
                engine.crash()
                engine.recover()                    # reformats the page, redoes its rows
            self.check(engine)

    def test_page_images_and_log_images_are_the_parents(self):
        """A bench-scale load and a short deck leave, byte for byte, the page
        images and WAL images of the commit before rows were kept beside
        records (pinned from it): anchor digests and ``storage.wal_bytes_per_op``
        cannot have moved."""
        from repro.workloads.tpcc import EncryptionMode, TpccConfig, build_system

        system = build_system(TpccConfig(mode=EncryptionMode.PLAINTEXT, seed=20200614))
        for kind in ["new_order", "payment", "delivery", "order_status", "stock_level"] * 4:
            system.transactions.run_one(kind)
        engine = system.server.engine
        engine.checkpoint()
        images, log = hashlib.sha256(), hashlib.sha256()
        for __, image in sorted(engine.disk.snapshot_pages().items()):
            images.update(image)
        for record in engine.wal.records():
            log.update(record.before or b"-")
            log.update(record.after or b"-")
        assert images.hexdigest() == (
            "246cf8029167d5a3f0cb1dc94b4c9723b320ea669229a284f0a96b6eb864fb25"
        )
        assert log.hexdigest() == (
            "eb82d89b3056b1b9d759b75f6759aec030ae37b5975ccd4417e72dcb509fe264"
        )


class TestBufferPool:
    def test_eviction_writes_back(self):
        disk = Disk()
        pool = BufferPool(disk, capacity=2)
        first = pool.allocate_page()
        first.insert(b"persisted")
        # Allocating past capacity evicts the dirty first page to disk.
        for __ in range(3):
            pool.allocate_page()
        assert disk.has_page(first.page_id)
        reloaded = pool.get(first.page_id)
        assert reloaded.slots()[0][1] == b"persisted"

    def test_hit_miss_accounting(self):
        pool = BufferPool(Disk(), capacity=2)
        page = pool.allocate_page()
        pool.flush_all()
        before_hits = pool.hits
        pool.get(page.page_id)
        assert pool.hits == before_hits + 1

    def test_drop_all_loses_unflushed(self):
        disk = Disk()
        pool = BufferPool(disk, capacity=10)
        page = pool.allocate_page()
        page.insert(b"volatile")
        pool.drop_all()
        assert not disk.has_page(page.page_id)


class TestWal:
    def test_append_assigns_lsns(self):
        wal = WriteAheadLog()
        r1 = wal.append(1, LogOp.BEGIN)
        r2 = wal.append(1, LogOp.COMMIT)
        assert r2.lsn == r1.lsn + 1

    def test_unflushed_records_lost_at_crash(self):
        wal = WriteAheadLog()
        wal.append(1, LogOp.BEGIN)
        wal.flush()
        wal.append(1, LogOp.COMMIT)  # not flushed
        durable = wal.records(durable_only=True)
        assert [r.op for r in durable] == [LogOp.BEGIN]

    def test_truncate(self):
        wal = WriteAheadLog()
        for __ in range(5):
            wal.append(1, LogOp.BEGIN)
        wal.flush()
        dropped = wal.truncate_before(3)
        assert dropped == 3
        assert wal.size() == 2

    def test_adversary_sees_everything(self):
        wal = WriteAheadLog()
        wal.append(1, LogOp.INSERT, table="t", rid=RowId(0, 0), after=b"image")
        assert wal.adversary_view()[0].after == b"image"

    def test_counters_never_lag_the_durability_horizon_under_threads(self):
        """Regression: ``append`` used to bump ``wal.records_appended`` /
        ``wal.bytes_written`` outside ``_lock``, so a concurrent ``flush``
        could advance ``flushed_lsn`` over records the counters had not
        seen yet. The counter updates now land inside the lock: whenever
        ``flushed_lsn`` covers N records, the counter shows at least N."""
        import threading

        from repro.obs.metrics import get_registry

        registry = get_registry()
        wal = WriteAheadLog()
        baseline = registry.value("wal.records_appended")
        n_threads, per_thread = 4, 300
        stop = threading.Event()
        violations: list[tuple[int, int]] = []

        def appender():
            for __ in range(per_thread):
                wal.append(1, LogOp.INSERT, table="t", rid=RowId(0, 0), after=b"x" * 8)

        def sampler():
            while not stop.is_set():
                wal.flush()
                # Read the horizon first: the counter can only grow
                # afterwards, so counted >= covered must hold.
                covered = wal.flushed_lsn + 1
                counted = registry.value("wal.records_appended") - baseline
                if counted < covered:
                    violations.append((counted, covered))

        threads = [threading.Thread(target=appender) for __ in range(n_threads)]
        watcher = threading.Thread(target=sampler)
        watcher.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        watcher.join()
        assert not violations, f"counter lagged flushed_lsn: {violations[:3]}"
        wal.flush()
        assert registry.value("wal.records_appended") - baseline == n_threads * per_thread
        assert wal.flushed_lsn == n_threads * per_thread - 1
