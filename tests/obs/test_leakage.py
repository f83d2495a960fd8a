"""Leakage accountant tests: per-(column, kind) accounting, the
unlabelled fallback, the registry kill switch, and the flight-recorder
events each observation emits."""

from __future__ import annotations

import threading

import pytest

from repro.obs.flightrec import get_recorder
from repro.obs.leakage import (
    LEAK_KINDS,
    UNLABELLED,
    LeakageAccountant,
    get_leakage_accountant,
    record_leak,
)
from repro.obs.metrics import MetricsRegistry


def make_accountant() -> tuple[LeakageAccountant, MetricsRegistry]:
    registry = MetricsRegistry()
    return LeakageAccountant(registry=registry), registry


def test_counts_accumulate_per_column_and_kind():
    accountant, registry = make_accountant()
    accountant.record("T.C_LAST", "rnd_comparison", count=3)
    accountant.record("T.C_LAST", "rnd_comparison")
    accountant.record("T.C_LAST", "index_touch", count=2)
    accountant.record("T.SSN", "det_equality")
    assert accountant.snapshot() == {
        "T.C_LAST": {"rnd_comparison": 4, "index_touch": 2},
        "T.SSN": {"det_equality": 1},
    }
    assert accountant.total() == 7
    assert accountant.total("T.C_LAST") == 6
    assert registry.counter("leakage.events_observed").value == 7


def test_a_statement_settles_its_observations_per_column_and_kind():
    """Inside a statement the ledger is batched — one locked pass at the
    settle — but never dropped and never merged across columns or kinds."""
    accountant, registry = make_accountant()
    record = registry.open_record()
    try:
        accountant.record("T.A", "index_touch", count=2)
        accountant.record("T.B", "index_touch", count=3)
        accountant.record("T.A", "rnd_comparison")
        accountant.record("T.A", "index_touch")
        assert _read_on_another_thread(accountant.snapshot) == {}   # sees it at the settle
    finally:
        registry.settle(record)
    assert accountant.snapshot() == {
        "T.A": {"index_touch": 3, "rnd_comparison": 1},
        "T.B": {"index_touch": 3},
    }
    assert registry.value("leakage.events_observed") == 7


def _read_on_another_thread(read):
    seen = []
    reader = threading.Thread(target=lambda: seen.append(read()))
    reader.start()
    reader.join(timeout=10)
    assert not reader.is_alive()
    return seen[0]


def test_a_statement_reads_its_own_pending_observations():
    """The ledger reads by ``Counter.value``'s rule — settled statements
    plus the calling thread's own open ones, nested included — so inside a
    statement ``total()`` equals ``leakage.events_observed``."""
    accountant, registry = make_accountant()
    accountant.record("T.A", "index_touch", count=2)       # settled at once
    outer = registry.open_record()
    try:
        accountant.record("T.A", "index_touch", count=3)
        inner = registry.open_record()
        try:
            accountant.record("T.B", "rnd_comparison")
            assert accountant.snapshot() == {
                "T.A": {"index_touch": 5},
                "T.B": {"rnd_comparison": 1},
            }
            assert accountant.total() == registry.value("leakage.events_observed") == 6
            assert accountant.total("T.A") == 5
            assert _read_on_another_thread(accountant.total) == 2
        finally:
            registry.settle(inner)
        assert accountant.total() == 6
    finally:
        registry.settle(outer)
    assert accountant.total() == _read_on_another_thread(accountant.total) == 6


def test_unknown_kind_raises():
    accountant, __ = make_accountant()
    with pytest.raises(ValueError, match="unknown leakage kind"):
        accountant.record("T.X", "plaintext_dump")


def test_every_leak_kind_maps_to_a_declared_event():
    from repro.obs.flightrec import EVENT_KINDS

    for event_kind in LEAK_KINDS.values():
        assert event_kind in EVENT_KINDS, event_kind


def test_nonpositive_counts_are_ignored():
    accountant, __ = make_accountant()
    accountant.record("T.X", "det_equality", count=0)
    accountant.record("T.X", "det_equality", count=-5)
    assert accountant.snapshot() == {}


def test_unlabelled_observations_pool_under_the_sentinel():
    accountant, __ = make_accountant()
    accountant.record(None, "det_equality")
    assert accountant.snapshot() == {UNLABELLED: {"det_equality": 1}}


def test_registry_kill_switch_silences_accounting():
    accountant, registry = make_accountant()
    registry.enabled = False
    accountant.record("T.X", "det_equality")
    assert accountant.snapshot() == {}


def test_reset_clears_counts():
    accountant, __ = make_accountant()
    accountant.record("T.X", "index_touch", count=9)
    accountant.reset()
    assert accountant.snapshot() == {}
    assert accountant.total() == 0


def test_record_leak_emits_a_flight_recorder_event():
    recorder = get_recorder()
    accountant = get_leakage_accountant()
    recorder.clear()
    try:
        record_leak("T.C_LAST", "rnd_comparison", count=5)
        events = [e for e in recorder.events()
                  if e.kind == "leak.rnd_comparison"]
        assert len(events) == 1
        assert events[0].attrs == {"column": "T.C_LAST", "count": 5}
    finally:
        recorder.clear()
        accountant.reset()
