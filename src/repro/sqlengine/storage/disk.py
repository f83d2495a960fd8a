"""The simulated disk: a flat store of serialized page images.

Separate from the buffer pool so a "crash" can discard all in-memory state
while the disk (and the log file, kept beside it) survives — the scenario
Section 4.5's recovery machinery exists for. The adversary can read every
byte here; tests assert that no plaintext of encrypted columns ever lands
on it.

Both page I/O paths are fault-injection sites (`disk.write_page`,
`disk.read_page`). A torn-write directive at the write site applies a
partial image — the new bytes up to the tear point, the old bytes after —
and then raises :class:`~repro.errors.ForcedCrash`, modelling power loss
mid-write. The page checksum (see :mod:`page`) makes the tear detectable
at recovery time.
"""

from __future__ import annotations

import threading

from repro.errors import ForcedCrash, SqlError
from repro.faults.actions import TornWriteDirective
from repro.faults.registry import fault_site

_WRITE_PAGE = fault_site("disk.write_page")
_READ_PAGE = fault_site("disk.read_page")


class Disk:
    """Page-addressed persistent storage."""

    def __init__(self) -> None:
        self._pages: dict[int, bytes] = {}
        self._lock = threading.Lock()
        self.reads = 0
        self.writes = 0

    def write_page(self, page_id: int, image: bytes) -> None:
        directive = (
            _WRITE_PAGE.fire(page_id=page_id, image=image) if _WRITE_PAGE.armed else None
        )
        if isinstance(directive, TornWriteDirective):
            with self._lock:
                torn = directive.tear(image, self._pages.get(page_id))
                self._pages[page_id] = torn
                self.writes += 1
            if directive.then_crash:
                raise ForcedCrash("disk.write_page", f"power lost tearing page {page_id}")
            return
        with self._lock:
            self._pages[page_id] = image
            self.writes += 1

    def read_page(self, page_id: int) -> bytes:
        if _READ_PAGE.armed:
            _READ_PAGE.fire(page_id=page_id)
        with self._lock:
            self.reads += 1
            try:
                return self._pages[page_id]
            except KeyError:
                raise SqlError(f"page {page_id} does not exist on disk") from None

    def drop_page(self, page_id: int) -> None:
        """Discard a page image (recovery reformats a torn page; its
        contents come back through physical redo from the WAL)."""
        with self._lock:
            self._pages.pop(page_id, None)

    def has_page(self, page_id: int) -> bool:
        with self._lock:
            return page_id in self._pages

    def page_ids(self) -> list[int]:
        with self._lock:
            return sorted(self._pages)

    def raw_bytes(self) -> bytes:
        """Everything on disk, concatenated — the adversary's view."""
        with self._lock:
            return b"".join(self._pages[pid] for pid in sorted(self._pages))

    # -- adversary hooks (Section 2.6: the host owns the disk) -------------

    def snapshot_pages(self) -> dict[int, bytes]:
        """Copy every page image — the adversary taking a backup."""
        with self._lock:
            return dict(self._pages)

    def restore_pages(self, pages: dict[int, bytes], replace: bool = False) -> None:
        """Swap old-but-valid page images back in — the rollback attack.

        ``replace=True`` models restoring a whole-disk backup (pages
        created since the snapshot vanish); ``replace=False`` replays
        only the given pages, leaving the rest of the disk current.
        """
        with self._lock:
            if replace:
                self._pages = dict(pages)
            else:
                self._pages.update(pages)
            self.writes += 1
