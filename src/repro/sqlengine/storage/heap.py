"""Heap files: unordered row storage for one table.

Writes are record-level: the caller encodes a row once
(:func:`~repro.sqlengine.storage.record.serialize_row`) and hands the same
bytes to the heap and to the log; ``update`` and ``delete`` hand back the
record they replaced, which is the log's before-image. A writer that holds
the row hands it over beside the bytes; reads return the row the page keeps
for the slot (:meth:`Page.row`), one immutable tuple shared by every reader.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import SqlError
from repro.obs.latchprof import TimedLatch
from repro.sqlengine.storage.bufferpool import BufferPool


@dataclass(frozen=True, order=True)
class RowId:
    """A stable row address: (page id, slot id)."""

    page_id: int
    slot: int

    def __repr__(self) -> str:
        return f"RID({self.page_id}:{self.slot})"


class HeapFile:
    """Rows of one table, spread over slotted pages."""

    def __init__(self, table_name: str, pool: BufferPool):
        self.table_name = table_name
        self._pool = pool
        self._page_ids: dict[int, None] = {}  # an ordered set, oldest first
        # Serializes page-id bookkeeping; page *content* mutation happens
        # under the pool latch so eviction's page serialization never
        # observes a half-mutated slot directory.
        self._latch = TimedLatch("repro.sqlengine.storage.heap.HeapFile._latch")

    @property
    def page_ids(self) -> list[int]:
        with self._latch:
            return list(self._page_ids)

    def adopt_page(self, page_id: int) -> None:
        """Attach an existing page (recovery rebuild path)."""
        with self._latch:
            self._page_ids.setdefault(page_id)

    # -- row operations -------------------------------------------------------

    def insert(self, record: bytes, row: tuple | None = None) -> RowId:
        """``row``, here and in :meth:`update`, is the tuple ``record`` encodes."""
        with self._latch, self._pool.latch:
            for page_id in reversed(self._page_ids):
                page = self._pool.get(page_id)
                if page.can_fit(record):
                    return RowId(page_id, page.insert(record, row))
            page = self._pool.allocate_page()
            self._page_ids[page.page_id] = None
            if not page.can_fit(record):
                raise SqlError(f"row of {len(record)} bytes exceeds page capacity")
            return RowId(page.page_id, page.insert(record, row))

    def insert_at(self, rid: RowId, record: bytes) -> None:
        """Physical placement at a known rid (redo recovery, undo)."""
        with self._latch, self._pool.latch:
            if rid.page_id not in self._page_ids:
                self.adopt_page(rid.page_id)
            self._pool.get_or_create(rid.page_id).insert_at(rid.slot, record)

    def read(self, rid: RowId) -> tuple:
        with self._latch, self._pool.latch:
            if rid.page_id not in self._page_ids:
                raise SqlError(f"{rid} does not belong to table {self.table_name!r}")
            return self._pool.get(rid.page_id).row(rid.slot)

    def read_or_none(self, rid: RowId) -> tuple | None:
        with self._latch, self._pool.latch:
            if rid.page_id not in self._page_ids:
                return None
            # get_or_create: recovery may probe pages that never hit the disk.
            return self._pool.get_or_create(rid.page_id).row_or_none(rid.slot)

    def update(self, rid: RowId, record: bytes, row: tuple | None = None) -> bytes | None:
        """Overwrite the record at ``rid``; returns the one it replaced
        (None for an empty slot)."""
        with self._latch, self._pool.latch:
            return self._pool.get(rid.page_id).update(rid.slot, record, row)

    def delete(self, rid: RowId) -> bytes | None:
        """Remove the record at ``rid``; returns it (None for an empty slot)."""
        with self._latch, self._pool.latch:
            return self._pool.get(rid.page_id).delete(rid.slot)

    def scan(self) -> Iterator[tuple[RowId, tuple]]:
        """Yield every live row with its rid.

        Each page's slots are materialized under the latches, then yielded
        outside them, so a long scan doesn't hold the pool latch while the
        consumer processes rows.
        """
        with self._latch:
            page_ids = list(self._page_ids)
        for page_id in page_ids:
            with self._latch, self._pool.latch:
                page = self._pool.get(page_id)
                rows = [(RowId(page_id, slot), row) for slot, row in page.rows()]
            yield from rows

    def row_count(self) -> int:
        return sum(1 for __ in self.scan())
