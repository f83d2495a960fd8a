"""Unit tests for the metrics registry: kinds, naming, thread safety,
histogram bucket edges, and exposition round-trips."""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS_S,
    MetricError,
    MetricKind,
    MetricsRegistry,
    StatsView,
    snapshot_from_json,
    snapshot_from_prometheus_text,
    validate_metric_name,
)


@pytest.fixture()
def registry() -> MetricsRegistry:
    return MetricsRegistry()


# ---------------------------------------------------------------- naming


def test_name_convention_accepts_component_noun_verb():
    for name in ("enclave.ecalls", "bufferpool.page_hits", "a.b.c", "x0.y_z9"):
        validate_metric_name(name)


@pytest.mark.parametrize(
    "bad",
    ["ecalls", "Enclave.ecalls", "enclave.Ecalls", "enclave..ecalls",
     "enclave.", ".ecalls", "enclave.e-calls", "9x.y", "enclave.9y", ""],
)
def test_name_convention_rejects_violations(bad):
    with pytest.raises(MetricError):
        validate_metric_name(bad)


def test_registration_is_get_or_create(registry):
    c1 = registry.counter("test.counter_a")
    c2 = registry.counter("test.counter_a")
    assert c1 is c2


def test_kind_conflict_raises(registry):
    registry.counter("test.conflicted")
    with pytest.raises(MetricError):
        registry.gauge("test.conflicted")
    with pytest.raises(MetricError):
        registry.histogram("test.conflicted")


def test_counter_rejects_negative(registry):
    counter = registry.counter("test.count")
    with pytest.raises(MetricError):
        counter.inc(-1)


def test_gauge_goes_up_and_down(registry):
    gauge = registry.gauge("test.depth")
    gauge.set(5)
    gauge.inc(2)
    gauge.dec(3)
    assert gauge.value == 4


def test_value_of_unregistered_metric_is_zero(registry):
    assert registry.value("never.registered") == 0


def test_disabled_registry_is_noop(registry):
    counter = registry.counter("test.count")
    hist = registry.histogram("test.duration_seconds")
    registry.enabled = False
    counter.inc(10)
    hist.observe(0.5)
    assert counter.value == 0
    assert hist.count == 0
    registry.enabled = True
    counter.inc(1)
    assert counter.value == 1


# ---------------------------------------------------------------- thread safety


def test_counter_thread_safety_eight_threads(registry):
    counter = registry.counter("test.contended")
    n_threads, per_thread = 8, 5000
    barrier = threading.Barrier(n_threads)

    def worker():
        barrier.wait()
        for __ in range(per_thread):
            counter.inc()

    threads = [threading.Thread(target=worker) for __ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert counter.value == n_threads * per_thread


def test_no_count_is_lost_inside_or_outside_a_statement(registry):
    """Eight threads on one counter, half of them incrementing inside
    statement records (nested every other round) and settling, half
    straight in, with the interpreter switching threads as often as it
    can: a lost update at a settle, a merge or a direct increment would
    leave the counter short."""
    counter = registry.counter("test.settled")
    n_threads, rounds, per_round = 8, 300, 7
    barrier = threading.Barrier(n_threads)

    def in_statements():
        barrier.wait()
        for i in range(rounds):
            outer = registry.open_record()
            try:
                counter.inc()
                inner = registry.open_record() if i % 2 else None
                for __ in range(per_round - 1):
                    counter.inc()
                if inner is not None:
                    registry.settle(inner)
            finally:
                registry.settle(outer)

    def straight_in():
        barrier.wait()
        for __ in range(rounds * per_round):
            counter.inc()

    threads = [
        threading.Thread(target=in_statements if i % 2 else straight_in)
        for i in range(n_threads)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert counter.value == n_threads * rounds * per_round
    assert registry.thread.record is None


def test_histogram_thread_safety_eight_threads(registry):
    hist = registry.histogram("test.latency_seconds", buckets=(0.1, 1.0))
    n_threads, per_thread = 8, 2000
    barrier = threading.Barrier(n_threads)

    def worker(i):
        barrier.wait()
        for j in range(per_thread):
            hist.observe(0.05 if (i + j) % 2 else 0.5)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    total = n_threads * per_thread
    snap = hist.snapshot()
    assert snap["count"] == total
    assert snap["buckets"]["+Inf"] == total
    assert snap["buckets"][repr(0.1)] == total // 2


def test_mixed_registration_thread_safety(registry):
    """Concurrent get-or-create of the same name yields one metric."""
    results = []
    barrier = threading.Barrier(8)

    def worker():
        barrier.wait()
        results.append(registry.counter("test.same_name"))

    threads = [threading.Thread(target=worker) for __ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len({id(c) for c in results}) == 1


# ---------------------------------------------------------------- histograms


def test_histogram_bucket_edges_are_inclusive(registry):
    hist = registry.histogram("test.sizes", buckets=(1.0, 10.0))
    hist.observe(1.0)   # exactly on the edge -> first bucket
    hist.observe(1.001)  # just over -> second bucket
    hist.observe(10.0)  # edge of second bucket
    hist.observe(10.5)  # overflow -> +Inf only
    snap = hist.snapshot()
    assert snap["buckets"][repr(1.0)] == 1
    assert snap["buckets"][repr(10.0)] == 3  # cumulative
    assert snap["buckets"]["+Inf"] == 4
    assert snap["count"] == 4
    assert snap["sum"] == pytest.approx(22.501)


def test_histogram_rejects_unsorted_buckets(registry):
    with pytest.raises(MetricError):
        registry.histogram("test.bad_buckets", buckets=(1.0, 0.5))
    with pytest.raises(MetricError):
        registry.histogram("test.empty_buckets", buckets=())


def test_default_buckets_are_ascending():
    assert list(DEFAULT_TIME_BUCKETS_S) == sorted(DEFAULT_TIME_BUCKETS_S)


# ---------------------------------------------------------------- snapshot / reset


def test_snapshot_and_reset(registry):
    registry.counter("test.a").inc(3)
    registry.gauge("test.b").set(7)
    registry.histogram("test.c", buckets=(1.0,)).observe(0.5)
    snap = registry.snapshot()
    assert snap["test.a"] == 3
    assert snap["test.b"] == 7
    assert snap["test.c"]["count"] == 1
    registry.reset()
    snap = registry.snapshot()
    assert snap["test.a"] == 0
    assert snap["test.b"] == 0
    assert snap["test.c"]["count"] == 0


def test_kind_of(registry):
    registry.counter("test.a")
    registry.gauge("test.b")
    assert registry.kind_of("test.a") is MetricKind.COUNTER
    assert registry.kind_of("test.b") is MetricKind.GAUGE


# ---------------------------------------------------------------- exposition


def _populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("enclave.ecalls").inc(42)
    registry.counter("wal.bytes_written").inc(123456)
    registry.gauge("worker.queue_depth").set(3)
    registry.counter("enclave.cpu_seconds").inc(0.125)
    hist = registry.histogram("locks.wait_seconds", buckets=(0.001, 0.1, 1.0))
    for v in (0.0005, 0.05, 0.05, 2.0):
        hist.observe(v)
    return registry


def test_json_round_trip_identical_values():
    registry = _populated_registry()
    assert snapshot_from_json(registry.to_json()) == registry.snapshot()


def test_prometheus_round_trip_identical_values():
    registry = _populated_registry()
    parsed = snapshot_from_prometheus_text(registry.to_prometheus_text())
    assert parsed == registry.snapshot()


def test_json_and_prometheus_agree():
    registry = _populated_registry()
    assert snapshot_from_json(registry.to_json()) == snapshot_from_prometheus_text(
        registry.to_prometheus_text()
    )


def test_json_exposition_carries_kinds():
    registry = _populated_registry()
    payload = json.loads(registry.to_json())
    assert payload["metrics"]["enclave.ecalls"]["kind"] == "counter"
    assert payload["metrics"]["worker.queue_depth"]["kind"] == "gauge"
    assert payload["metrics"]["locks.wait_seconds"]["kind"] == "histogram"


def test_prometheus_text_sanitizes_names():
    registry = _populated_registry()
    text = registry.to_prometheus_text()
    assert 'enclave_ecalls{metric="enclave.ecalls"} 42' in text
    assert "# TYPE enclave_ecalls counter" in text
    assert 'locks_wait_seconds_bucket{metric="locks.wait_seconds",le="+Inf"} 4' in text


def test_prometheus_parser_rejects_garbage():
    with pytest.raises(MetricError):
        snapshot_from_prometheus_text("not a metric line\n")


# ---------------------------------------------------------------- stats views


class _View(StatsView):
    FIELDS = {"hits": "test.view_hits", "misses": "test.view_misses"}


def test_stats_view_baselines_per_instance(registry):
    first = _View(registry)
    first.inc("hits", 5)
    second = _View(registry)
    second.inc("hits", 2)
    assert first.hits == 7      # sees both (global counter moved by 7)
    assert second.hits == 2     # only its own delta
    assert registry.value("test.view_hits") == 7


def test_stats_view_clamps_after_reset(registry):
    view = _View(registry)
    view.inc("hits", 3)
    registry.reset()
    assert view.hits == 0  # not negative


def test_stats_view_snapshot_and_unknown_attr(registry):
    view = _View(registry)
    view.inc("misses")
    assert view.snapshot() == {"hits": 0, "misses": 1}
    with pytest.raises(AttributeError):
        view.nope
