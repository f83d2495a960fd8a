"""Latch-contention profiler tests: level attribution against the
declared lock order, contended-only measurement in TimedLatch, and the
per-level aggregation the EXPLAIN STATS surface consumes."""

from __future__ import annotations

import threading
import time

import pytest

from repro.analysis.config import DEFAULT_LOCK_ORDER
from repro.obs.latchprof import LatchProfiler, TimedLatch
from repro.obs.metrics import MetricsRegistry

WAL_LATCH = "repro.sqlengine.storage.wal.WriteAheadLog._lock"


def make_profiler() -> tuple[LatchProfiler, MetricsRegistry]:
    registry = MetricsRegistry()
    return LatchProfiler(registry=registry), registry


# -- level attribution -------------------------------------------------------

def test_level_of_matches_declared_patterns_in_order():
    profiler, __ = make_profiler()
    assert profiler.level_of(WAL_LATCH) == DEFAULT_LOCK_ORDER.index(
        "repro.sqlengine.storage.wal.*"
    )
    assert profiler.level_of(
        "repro.sqlengine.storage.bufferpool.BufferPool._latch"
    ) == DEFAULT_LOCK_ORDER.index("repro.sqlengine.storage.bufferpool.*")


def test_undeclared_latch_sits_below_every_level():
    profiler, __ = make_profiler()
    assert profiler.level_of("some.new.Module._lock") == len(DEFAULT_LOCK_ORDER)


def test_every_storage_latch_name_is_declared():
    """The runtime latch ids and the static lock order must agree — an
    instrumented latch that matches no pattern silently loses its level."""
    profiler, __ = make_profiler()
    for latch_id in (
        WAL_LATCH,
        "repro.sqlengine.storage.bufferpool.BufferPool._latch",
        "repro.sqlengine.storage.heap.HeapFile._latch",
        "repro.sqlengine.catalog.Catalog._latch",
        "repro.sqlengine.index.btree.BPlusTree._latch",
    ):
        assert profiler.level_of(latch_id) < len(DEFAULT_LOCK_ORDER), latch_id


# -- wait accounting ---------------------------------------------------------

def test_record_wait_accumulates_per_latch_and_per_level():
    profiler, registry = make_profiler()
    level = profiler.level_of(WAL_LATCH)
    profiler.record_wait(WAL_LATCH, 0.25)
    profiler.record_wait(WAL_LATCH, 0.75)
    entry = profiler.snapshot()[WAL_LATCH]
    assert entry["waits"] == 2
    assert entry["total_s"] == pytest.approx(1.0)
    assert entry["max_s"] == pytest.approx(0.75)
    assert entry["level"] == level
    assert registry.counter("latch.waits").value == 2
    assert registry.counter(f"latch.l{level:02d}_waits").value == 2
    assert registry.counter(
        f"latch.l{level:02d}_wait_seconds"
    ).value == pytest.approx(1.0)


def test_waiting_path_registers_nothing_after_the_first_wait(monkeypatch):
    """The per-level counter pair is resolved once per latch id; the path
    that is already waiting never formats a name or takes the registry's
    registration lock again."""
    profiler, registry = make_profiler()
    profiler.record_wait(WAL_LATCH, 0.001)
    names = registry.names()
    lookups: list[str] = []
    register = registry.counter
    monkeypatch.setattr(
        registry, "counter", lambda name, **kw: lookups.append(name) or register(name, **kw)
    )
    for __ in range(99):
        profiler.record_wait(WAL_LATCH, 0.001)
    assert lookups == []
    assert registry.names() == names
    level = profiler.level_of(WAL_LATCH)
    assert registry.value(f"latch.l{level:02d}_waits") == 100


def test_by_level_aggregates_latches_sharing_a_pattern():
    profiler, __ = make_profiler()
    profiler.record_wait(WAL_LATCH, 0.1)
    profiler.record_wait("repro.sqlengine.storage.heap.HeapFile._latch", 0.2)
    levels = profiler.by_level()
    wal_level = profiler.level_of(WAL_LATCH)
    assert levels[wal_level]["waits"] == 1
    assert levels[wal_level]["pattern"] == "repro.sqlengine.storage.wal.*"
    heap_level = profiler.level_of("repro.sqlengine.storage.heap.HeapFile._latch")
    assert WAL_LATCH in levels[wal_level]["latches"]
    assert heap_level != wal_level


def test_registry_kill_switch_silences_the_profiler():
    profiler, registry = make_profiler()
    registry.enabled = False
    profiler.record_wait(WAL_LATCH, 0.5)
    assert profiler.snapshot() == {}


def test_reset_clears_stats_but_keeps_level_cache_valid():
    profiler, __ = make_profiler()
    profiler.record_wait(WAL_LATCH, 0.5)
    profiler.reset()
    assert profiler.snapshot() == {}
    assert profiler.level_of(WAL_LATCH) < len(DEFAULT_LOCK_ORDER)


# -- TimedLatch --------------------------------------------------------------

def test_uncontended_acquisition_measures_nothing():
    profiler, __ = make_profiler()
    latch = TimedLatch("uncontended.test_latch", profiler=profiler)
    with latch:
        pass
    assert profiler.snapshot() == {}


def test_reentrant_acquisition_is_free_and_legal():
    profiler, __ = make_profiler()
    latch = TimedLatch("reentrant.test_latch", profiler=profiler)
    with latch:
        with latch:
            pass
    assert profiler.snapshot() == {}


def test_contended_acquisition_reports_its_wait():
    profiler, __ = make_profiler()
    latch = TimedLatch("contended.test_latch", profiler=profiler)
    entered = threading.Event()
    release = threading.Event()

    def holder():
        with latch:
            entered.set()
            release.wait(timeout=5.0)

    thread = threading.Thread(target=holder)
    thread.start()
    entered.wait(timeout=5.0)
    waiter_started = time.perf_counter()

    def waiter():
        with latch:
            pass

    contender = threading.Thread(target=waiter)
    contender.start()
    time.sleep(0.05)          # let the contender block
    release.set()
    contender.join(timeout=5.0)
    thread.join(timeout=5.0)
    elapsed = time.perf_counter() - waiter_started
    entry = profiler.snapshot()["contended.test_latch"]
    assert entry["waits"] == 1
    assert 0.0 < entry["total_s"] <= elapsed


def test_non_blocking_acquire_fails_fast_without_recording():
    profiler, __ = make_profiler()
    latch = TimedLatch("nonblocking.test_latch", profiler=profiler)
    hold = threading.Event()
    done = threading.Event()

    def holder():
        with latch:
            hold.set()
            done.wait(timeout=5.0)

    thread = threading.Thread(target=holder)
    thread.start()
    hold.wait(timeout=5.0)
    try:
        assert latch.acquire(blocking=False) is False
    finally:
        done.set()
        thread.join(timeout=5.0)
    assert profiler.snapshot() == {}
