"""Pages, records, heap files, buffer pool, and the WAL."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SqlError
from repro.sqlengine.cells import Ciphertext
from repro.sqlengine.storage.bufferpool import BufferPool
from repro.sqlengine.storage.disk import Disk
from repro.sqlengine.storage.heap import HeapFile, RowId
from repro.sqlengine.storage.page import PAGE_SIZE, Page
from repro.sqlengine.storage.record import deserialize_row, serialize_row
from repro.sqlengine.storage.wal import LogOp, WriteAheadLog


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
        assert page.read_or_none(s0) is None

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
        assert page.read_or_none(3) is None


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
