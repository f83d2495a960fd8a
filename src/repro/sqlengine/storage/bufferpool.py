"""A simple LRU buffer pool between the executor and the disk.

Encrypted cells stay encrypted in the buffer pool — the paper's central
operational guarantee ("encrypted ... in SQL Server's internal memory while
in use"). The pool never interprets cell contents; it caches
:class:`~repro.sqlengine.storage.page.Page` objects whose records are raw
bytes and whose decoded rows hold a ciphertext as the same opaque envelope.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING

from repro.faults.registry import fault_point, register_fault_site
from repro.obs.latchprof import TimedLatch
from repro.obs.metrics import StatsView, get_registry
from repro.sqlengine.storage.disk import Disk
from repro.sqlengine.storage.page import Page

if TYPE_CHECKING:
    from repro.sqlengine.storage.wal import WriteAheadLog

register_fault_site(
    "bufferpool.evict", "one page evicted (dirty pages write back to disk)"
)


class BufferPoolStats(StatsView):
    """Per-pool view over the global ``bufferpool.*`` counters."""

    FIELDS = {
        "hits": "bufferpool.page_hits",
        "misses": "bufferpool.page_misses",
        "evictions": "bufferpool.pages_evicted",
        "flushes": "bufferpool.pages_flushed",
    }


class BufferPool:
    """LRU cache of pages with write-back on eviction and explicit flush.

    Hits, misses, evictions, and flushes all feed the metrics registry;
    evictions used to be silent, which made cache-size tuning blind.
    """

    def __init__(self, disk: Disk, capacity: int = 256, wal: "WriteAheadLog | None" = None):
        self._disk = disk
        self._wal = wal
        self._capacity = max(1, capacity)
        self._pages: OrderedDict[int, Page] = OrderedDict()
        self.stats = BufferPoolStats()
        self._hits = self.stats.handle("hits")
        self._cached_gauge = get_registry().gauge(
            "bufferpool.pages_cached", help="pages resident in this process's pools"
        )
        self._next_page_id = 0
        # Freshness hooks: page_write_hook is called with (page_id, image)
        # immediately before every disk write-back (the anchor's page map
        # leads the disk); page_wrote_hook is called with (page_id,) after
        # the write lands, confirming the advance so the anchor can stop
        # tolerating the previous version for that page.
        self.page_write_hook = None
        self.page_wrote_hook = None
        # Reentrant so heap files can hold the pool latch across a page
        # mutation (serializing it against eviction's page serialization)
        # while the nested get()/allocate_page() re-acquires it.
        self._latch = TimedLatch(
            "repro.sqlengine.storage.bufferpool.BufferPool._latch"
        )

    @property
    def latch(self) -> TimedLatch:
        """The pool latch; heap files hold it while mutating page contents."""
        return self._latch

    @property
    def hits(self) -> int:
        return self.stats.hits

    @property
    def misses(self) -> int:
        return self.stats.misses

    @property
    def evictions(self) -> int:
        return self.stats.evictions

    @property
    def flushes(self) -> int:
        return self.stats.flushes

    @property
    def hit_ratio(self) -> float:
        """Fraction of page requests served from memory (1.0 when idle)."""
        total = self.stats.hits + self.stats.misses
        return self.stats.hits / total if total else 1.0

    def allocate_page(self) -> Page:
        """Create a brand-new page (not yet on disk until flushed/evicted)."""
        with self._latch:
            page = Page(self._next_page_id)
            self._next_page_id += 1
            self._put(page)
            return page

    def note_existing_page_id(self, page_id: int) -> None:
        """Advance the allocator past ids found on disk (recovery path)."""
        with self._latch:
            self._next_page_id = max(self._next_page_id, page_id + 1)

    def get_or_create(self, page_id: int) -> Page:
        """Fetch a page, materializing an empty one if it exists nowhere.

        Recovery redo may reference pages that were allocated before the
        crash but never flushed; physically redoing into a fresh page of
        the same id is exactly what page-oriented redo does.
        """
        with self._latch:
            if page_id in self._pages or self._disk.has_page(page_id):
                return self.get(page_id)
            page = Page(page_id)
            self.note_existing_page_id(page_id)
            self._put(page)
            return page

    def get(self, page_id: int) -> Page:
        with self._latch:
            page = self._pages.get(page_id)
            if page is not None:
                self._pages.move_to_end(page_id)
                self._hits.inc()
                return page
            self.stats.inc("misses")
            page = Page.from_bytes(self._disk.read_page(page_id))
            self._put(page)
            return page

    def _put(self, page: Page) -> None:
        with self._latch:
            self._pages[page.page_id] = page
            self._pages.move_to_end(page.page_id)
            while len(self._pages) > self._capacity:
                fault_point("bufferpool.evict")
                __, evicted = self._pages.popitem(last=False)
                self.stats.inc("evictions")
                if evicted.dirty:
                    self._write_back(evicted)
            self._cached_gauge.set(len(self._pages))

    def _write_back(self, page: Page) -> None:
        # Write-ahead rule: the log records covering this page's changes
        # must be durable before the page image lands on disk, otherwise a
        # crash leaves rows on disk that recovery knows nothing about.
        if self._wal is not None:
            self._wal.flush()
        image = page.to_bytes()
        # Anchor-before-data: the freshness anchor learns the new page
        # version before the disk does, so a crash in this window leaves
        # the disk exactly one (tolerated) version behind — never a page
        # the anchor knows nothing about.
        if self.page_write_hook is not None:
            self.page_write_hook(page.page_id, image)
        self._disk.write_page(page.page_id, image)
        if self.page_wrote_hook is not None:
            self.page_wrote_hook(page.page_id)
        page.dirty = False

    def flush_all(self) -> None:
        with self._latch:
            for page in self._pages.values():
                if page.dirty:
                    self._write_back(page)
                    self.stats.inc("flushes")

    def drop_all(self) -> None:
        """Discard every cached page without writing (crash simulation)."""
        with self._latch:
            self._pages.clear()
            self._cached_gauge.set(0)

    def cached_page_ids(self) -> list[int]:
        with self._latch:
            return list(self._pages)
