"""QueryStats integration: every statement result carries per-query
telemetry whose enclave counts agree exactly with the registry."""

from __future__ import annotations

import re

import pytest

from repro.obs.metrics import get_registry
from repro.obs.querystats import QueryStats, format_explain_stats
from tests.conftest import make_encrypted_table

POINT_LOOKUP = "SELECT id, value FROM T WHERE value = @v"


def test_point_lookup_reports_ecalls_and_pages(encrypted_table):
    conn = encrypted_table
    conn.execute(POINT_LOOKUP, {"v": 30})  # warm: describe, attest, CEKs

    result = conn.execute(POINT_LOOKUP, {"v": 30})
    stats = result.stats
    assert stats is not None
    assert result.rows == [(3, 30)]
    assert stats.rows_returned == 1
    assert stats.ecalls > 0            # RND predicate runs in the enclave
    assert stats.pages_read > 0        # rows come through the buffer pool
    assert stats.rows_scanned > 0
    assert stats.elapsed_s > 0


def test_ecall_count_matches_registry_delta_exactly(encrypted_table):
    conn = encrypted_table
    conn.execute(POINT_LOOKUP, {"v": 30})  # warm

    registry = get_registry()
    before = registry.value("enclave.ecalls")
    result = conn.execute(POINT_LOOKUP, {"v": 30})
    after = registry.value("enclave.ecalls")

    assert result.stats.ecalls == after - before


def test_driver_side_fields_merge_into_stats(encrypted_table):
    conn = encrypted_table
    conn.execute(POINT_LOOKUP, {"v": 10})  # warm

    result = conn.execute(POINT_LOOKUP, {"v": 10})
    stats = result.stats
    # Warm connection: describe is cached, CEK material is cached.
    assert stats.describe_roundtrips == 0
    assert stats.cek_cache_hits > 0
    assert stats.cek_cache_misses == 0


def test_plan_cache_hit_shows_in_stats(encrypted_table):
    conn = encrypted_table
    conn.execute(POINT_LOOKUP, {"v": 10})  # warm (plan cached server-side)
    result = conn.execute(POINT_LOOKUP, {"v": 10})
    assert result.stats.plan_cache_hits >= 1


def test_dml_reports_wal_activity(encrypted_table):
    conn = encrypted_table
    result = conn.execute(
        "INSERT INTO T (id, value) VALUES (@id, @v)", {"id": 99, "v": 990}
    )
    stats = result.stats
    assert stats is not None
    assert stats.wal_records > 0
    assert stats.wal_bytes > 0


@pytest.mark.parametrize(
    "statement, params",
    [
        ("UPDATE T SET value = @new WHERE value > @v", {"new": 5, "v": 70}),
        ("DELETE FROM T WHERE value > @v", {"v": 70}),
    ],
    ids=["update", "delete"],
)
def test_scan_qualified_dml_counts_its_table_scan(encrypted_table, statement, params):
    """T.value has no index, so qualification is a heap scan — which must
    show up like a SELECT's (regression: DML scanned the heap uncounted)."""
    conn = encrypted_table
    registry = get_registry()
    scans = registry.value("executor.table_scans")
    scanned = registry.value("executor.rows_scanned")

    text = conn.explain_stats(statement, params)

    assert registry.value("executor.table_scans") == scans + 1
    assert registry.value("executor.rows_scanned") == scanned + 10
    assert re.search(r"rows_scanned\s+10$", text, re.MULTILINE)
    assert "exec.table_scan" in text


def test_span_tree_contains_ecall_spans(encrypted_table):
    conn = encrypted_table
    conn.execute(POINT_LOOKUP, {"v": 30})  # warm

    result = conn.execute(POINT_LOOKUP, {"v": 30})
    stats = result.stats
    assert stats.root_span is not None
    assert stats.root_span.name == "server.statement"
    assert stats.ecall_spans > 0
    # The trace agrees with the counters on boundary crossings.
    assert stats.ecall_spans <= stats.ecalls


def test_explain_stats_output(encrypted_table):
    conn = encrypted_table
    conn.execute(POINT_LOOKUP, {"v": 30})  # warm

    text = conn.explain_stats(POINT_LOOKUP, {"v": 30})
    assert text.startswith("EXPLAIN STATS")
    assert "ecalls" in text
    assert "pages_read" in text
    assert "span tree:" in text
    assert "server.statement" in text


def test_format_explain_stats_handles_empty():
    text = format_explain_stats(QueryStats())
    assert text.startswith("EXPLAIN STATS")
    assert "<unknown>" in text


def test_plain_connection_still_gets_stats(plain_server, registry):
    from repro.client.driver import connect

    conn = connect(plain_server, registry, column_encryption=False)
    conn.execute_ddl("CREATE TABLE P(id int PRIMARY KEY, v int)")
    conn.execute("INSERT INTO P (id, v) VALUES (@id, @v)", {"id": 1, "v": 2})
    result = conn.execute("SELECT v FROM P WHERE id = @id", {"id": 1})
    stats = result.stats
    assert stats is not None
    assert stats.ecalls == 0  # no enclave on a plaintext path
    assert stats.rows_scanned > 0


class TestStatsStayWellFormedUnderFaults:
    """A statement that raises mid-execution must not poison telemetry:
    no span left open on the tracer, and the next statement's registry
    deltas all non-negative."""

    @pytest.fixture(autouse=True)
    def _disarm(self):
        from repro.faults import get_fault_registry

        get_fault_registry().disarm_all()
        yield
        get_fault_registry().disarm_all()

    def _delta_fields(self, stats: QueryStats) -> dict[str, int]:
        from repro.obs.querystats import _DRIVER_DELTA_FIELDS, _SERVER_DELTA_FIELDS

        return {
            attr: getattr(stats, attr)
            for attr in (*_SERVER_DELTA_FIELDS, *_DRIVER_DELTA_FIELDS)
        }

    def test_failed_statement_leaves_no_open_span(self, encrypted_table):
        from repro.errors import FatalFault
        from repro.faults import Always, RaiseFatal, get_fault_registry
        from repro.obs.tracing import get_tracer

        conn = encrypted_table
        armed = get_fault_registry().arm(
            "engine.index_insert", Always(), RaiseFatal()
        )
        try:
            with pytest.raises(FatalFault):
                conn.execute(
                    "INSERT INTO T (id, value) VALUES (@id, @v)",
                    {"id": 50, "v": 500},
                )
        finally:
            get_fault_registry().disarm(armed)
        assert get_tracer().current() is None

    def test_next_statement_deltas_are_non_negative(self, encrypted_table):
        from repro.errors import FatalFault
        from repro.faults import Always, RaiseFatal, get_fault_registry

        conn = encrypted_table
        armed = get_fault_registry().arm(
            "engine.index_insert", Always(), RaiseFatal()
        )
        try:
            with pytest.raises(FatalFault):
                conn.execute(
                    "INSERT INTO T (id, value) VALUES (@id, @v)",
                    {"id": 51, "v": 510},
                )
        finally:
            get_fault_registry().disarm(armed)
        result = conn.execute(POINT_LOOKUP, {"v": 30})
        assert result.rows == [(3, 30)]
        for attr, value in self._delta_fields(result.stats).items():
            assert value >= 0, f"{attr} went negative after a failed statement"

    def test_faults_injected_delta_attributed_to_faulted_statement(self, encrypted_table):
        from repro.errors import TransientFault
        from repro.faults import OnNth, RaiseTransient, get_fault_registry

        conn = encrypted_table
        armed = get_fault_registry().arm("engine.commit", OnNth(1), RaiseTransient())
        try:
            with pytest.raises(TransientFault):
                conn.execute(
                    "INSERT INTO T (id, value) VALUES (@id, @v)",
                    {"id": 52, "v": 520},
                )
        finally:
            get_fault_registry().disarm(armed)
        # The failed statement aborted cleanly; the next one reports its
        # own (fault-free) delta.
        result = conn.execute(POINT_LOOKUP, {"v": 30})
        assert result.stats.faults_injected == 0


def test_range_query_explain_stats(ae_connection):
    """The README example: EXPLAIN STATS for an encrypted range query."""
    conn = ae_connection
    make_encrypted_table(conn)
    for i in range(10):
        conn.execute("INSERT INTO T (id, value) VALUES (@id, @v)", {"id": i, "v": i * 10})
    query = "SELECT id, value FROM T WHERE value > @low AND value < @high"
    conn.execute(query, {"low": 20, "high": 70})  # warm
    result = conn.execute(query, {"low": 20, "high": 70})
    stats = result.stats
    assert [r[0] for r in result.rows] == [3, 4, 5, 6]
    assert stats.ecalls > 0
    assert stats.enclave_evals > 0  # host-issued TM_EVALs for the predicate
