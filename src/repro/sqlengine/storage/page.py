"""Slotted pages — the unit of storage and buffering.

A page holds variable-length records in slots. Deleted slots leave
tombstones so row ids (page id, slot id) stay stable, which both the heap
and the B+-trees rely on. Pages serialize to a flat byte image — that
image is what lives on the simulated disk and what the strong adversary
reads.

The image header carries a CRC32 of the payload, so a torn write (some
bytes of the new image, some of the old) is *detectable*:
:meth:`Page.from_bytes` raises :class:`~repro.errors.PageCorruptError`
and recovery reformats the page and redoes its rows from the WAL — the
physical, keyless redo of Section 4.5.

Beside each record a resident page keeps the row it decodes to: decoded
once per residency, not once per read. The image is the records alone — a
loaded, restored or reformatted page starts with no rows — and a row's
cells are exactly what decoding yields: ciphertext stays ``Ciphertext``.
"""

from __future__ import annotations

import struct
import zlib

from repro.errors import PageCorruptError, SqlError
from repro.sqlengine.storage.record import deserialize_row, is_decoded_form

PAGE_SIZE = 8192
_HEADER = struct.Struct(">IHI")  # page_id, slot_count, payload crc32
_SLOT = struct.Struct(">I")      # record length (0xFFFFFFFF = tombstone)

_TOMBSTONE = 0xFFFFFFFF


class Page:
    """An in-memory slotted page."""

    def __init__(self, page_id: int):
        self.page_id = page_id
        self._records: list[bytes | None] = []  # None = tombstone
        # Each slot's decoded row: None until first read, and again whenever
        # the slot is written from bytes alone.
        self._rows: list[tuple | None] = []
        self._used = _HEADER.size  # image bytes taken: header, slot lengths, records
        self.dirty = False

    # -- record operations -------------------------------------------------

    def free_space(self) -> int:
        return PAGE_SIZE - self._used

    def can_fit(self, record: bytes) -> bool:
        return self.free_space() >= _SLOT.size + len(record)

    def insert(self, record: bytes, row: tuple | None = None) -> int:
        """Insert a record; returns its slot id. Reuses tombstoned slots.
        ``row``, here and in :meth:`update`, is the tuple ``record`` encodes,
        kept only where decoding ``record`` would return exactly that."""
        if not self.can_fit(record):
            raise SqlError(f"record of {len(record)} bytes does not fit in page {self.page_id}")
        tombstones = (slot for slot, held in enumerate(self._records) if held is None)
        slot = next(tombstones, len(self._records))
        self.insert_at(slot, record)
        self._rows[slot] = row if is_decoded_form(row) else None
        return slot

    def insert_at(self, slot: int, record: bytes) -> None:
        """Place a record at a specific slot (physical redo during recovery)."""
        while len(self._records) <= slot:
            self._records.append(None)
            self._rows.append(None)
            self._used += _SLOT.size
        self._used += len(record) - len(self._records[slot] or b"")
        self._records[slot] = record
        self._rows[slot] = None
        self.dirty = True

    def read(self, slot: int) -> bytes:
        record = self._slot(slot)
        if record is None:
            raise SqlError(f"slot {slot} of page {self.page_id} is empty")
        return record

    def row(self, slot: int) -> tuple:
        """The row ``read(slot)`` decodes to, decoded on its first read."""
        self.read(slot)  # raises for an empty or absent slot
        return self.row_or_none(slot)

    def row_or_none(self, slot: int) -> tuple | None:
        if slot >= len(self._records):
            return None
        row = self._rows[slot]
        if row is None and (record := self._records[slot]) is not None:
            row = self._rows[slot] = deserialize_row(record)
        return row

    def update(self, slot: int, record: bytes, row: tuple | None = None) -> bytes | None:
        """Replace a slot's record; returns what it held. An update that
        would overflow the page raises and leaves the slot as it was."""
        replaced = self._slot(slot)  # must exist
        grown = len(record) - (len(replaced) if replaced is not None else 0)
        if self.free_space() - grown < _SLOT.size:
            raise SqlError(f"update overflows page {self.page_id}")
        self._used += grown
        self._records[slot] = record
        self._rows[slot] = row if is_decoded_form(row) else None
        self.dirty = True
        return replaced

    def delete(self, slot: int) -> bytes | None:
        """Tombstone a slot; returns the record it held."""
        replaced = self._slot(slot)  # must exist
        self._used -= len(replaced or b"")
        self._records[slot] = None
        self._rows[slot] = None
        self.dirty = True
        return replaced

    def slots(self) -> list[tuple[int, bytes]]:
        """All live (slot, record) pairs."""
        return [(i, r) for i, r in enumerate(self._records) if r is not None]

    def rows(self) -> list[tuple[int, tuple]]:
        """All live (slot, row) pairs."""
        return [(slot, self.row_or_none(slot)) for slot, __ in self.slots()]

    def _slot(self, slot: int) -> bytes | None:
        if slot < 0 or slot >= len(self._records):
            raise SqlError(f"slot {slot} out of range on page {self.page_id}")
        return self._records[slot]

    # -- serialization -------------------------------------------------------

    def to_bytes(self) -> bytes:
        payload = bytearray()
        for record in self._records:
            if record is None:
                payload += _SLOT.pack(_TOMBSTONE)
            else:
                payload += _SLOT.pack(len(record))
                payload += record
        if _HEADER.size + len(payload) > PAGE_SIZE:
            raise SqlError(f"page {self.page_id} overflows PAGE_SIZE on serialization")
        payload += b"\x00" * (PAGE_SIZE - _HEADER.size - len(payload))
        crc = zlib.crc32(payload)
        return _HEADER.pack(self.page_id, len(self._records), crc) + bytes(payload)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Page":
        try:
            page_id, slot_count, crc = _HEADER.unpack_from(data, 0)
        except struct.error as exc:
            raise PageCorruptError(f"page image too short to parse: {exc}") from exc
        if zlib.crc32(data[_HEADER.size :]) != crc:
            raise PageCorruptError(
                f"page {page_id} fails its checksum (torn or partial write)"
            )
        page = cls(page_id)
        offset = _HEADER.size
        for __ in range(slot_count):
            (length,) = _SLOT.unpack_from(data, offset)
            offset += _SLOT.size
            if length == _TOMBSTONE:
                page._records.append(None)
            else:
                page._records.append(data[offset : offset + length])
                offset += length
        page._rows = [None] * slot_count
        page._used = offset
        return page
