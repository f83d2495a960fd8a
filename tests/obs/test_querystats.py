"""QueryStats integration: every statement result carries per-query
telemetry whose enclave counts agree exactly with the registry."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.client.driver import connect
from repro.enclave.runtime import Enclave
from repro.enclave.worker import CallMode
from repro.obs.metrics import get_registry
from repro.obs.querystats import QueryStats, format_explain_stats
from repro.obs.tracing import get_tracer
from repro.sqlengine.server import SqlServer
from tests.conftest import ALGO, make_encrypted_table

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
    plain = conn.execute(POINT_LOOKUP, {"v": 30})  # warm
    # Timing is on request: a plain execute carries counts and no tree.
    assert plain.stats.root_span is None
    assert plain.stats.ecall_spans == 0 < plain.stats.ecalls

    with get_tracer().root("test.request"):        # ask, as EXPLAIN STATS does
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


# -- EXPLAIN text is the parent commit's, byte for byte ----------------------

GOLDEN_EXPLAIN = Path(__file__).with_name("golden_explain.json")

EXPLAINED = [
    ("point_seek", "SELECT id, tag FROM G WHERE id = @id", {"id": 3}),
    ("rnd_range_scan", "SELECT id FROM G WHERE value > @lo AND value < @hi",
     {"lo": 10, "hi": 40}),
    ("insert", "INSERT INTO G (id, value, tag) VALUES (@id, @v, @t)",
     {"id": 100, "v": 1000, "t": 5}),
    ("key_moving_update", "UPDATE G SET tag = @t WHERE id = @id", {"t": 99, "id": 2}),
]


def _mask_ms(text: str) -> str:
    """Durations — and the padding a wider one eats — are the only thing
    allowed to differ between two runs."""
    text = re.sub(r" *\d+\.\d+ms", " #ms", text)
    return re.sub(r"(_ms[\s=]+)\d+\.\d+", r"\1#", text)


def explain_texts(server: SqlServer, conn) -> dict[str, str]:
    """Masked EXPLAIN STATS / EXPLAIN ANALYZE text of every ``EXPLAINED``
    statement, each run warm, on a fresh six-row table (deterministic ids,
    counts and page traffic: the gateway must be SYNCHRONOUS)."""
    conn.execute_ddl(
        "CREATE TABLE G(id int PRIMARY KEY, value int ENCRYPTED WITH ("
        f"COLUMN_ENCRYPTION_KEY = TestCEK, ENCRYPTION_TYPE = Randomized, "
        f"ALGORITHM = '{ALGO}'), tag int)"
    )
    conn.execute_ddl("CREATE INDEX G_TAG ON G(tag)")
    for i in range(6):
        conn.execute(
            "INSERT INTO G (id, value, tag) VALUES (@id, @v, @t)",
            {"id": i, "v": i * 10, "t": i % 3},
        )
    out: dict[str, str] = {}
    for name, text, params in EXPLAINED:
        fresh = iter(range(200, 300)) if name == "insert" else None

        def bind():
            return dict(params, id=next(fresh)) if fresh else params

        conn.execute(text, bind())       # warm: plan, describe, CEKs
        out[f"{name}.stats"] = _mask_ms(conn.explain_stats(text, bind()))
        out[f"{name}.analyze"] = _mask_ms(conn.explain_analyze(text, bind()))
    return out


@pytest.mark.parametrize("eval_batch_size", [1, 64])
def test_explain_text_matches_the_parent_commits(
    eval_batch_size, enclave_binary, host_machine, hgs, registry,
    attestation_policy, enclave_cmk, enclave_cek,
):
    """``EXPLAIN STATS`` / ``EXPLAIN ANALYZE`` for a point seek, an RND
    range scan (row-at-a-time and batched), an INSERT and a key-moving
    UPDATE: equal, after masking ``*_ms``, to the strings the parent
    commit printed (captured there by running this module's
    ``explain_texts``) — every count, every span, every attribute. The
    range scan's were captured again when its conjunction became one
    enclave program: half the ecalls, and one open of each cell."""
    server = SqlServer(
        enclave=Enclave(enclave_binary), host_machine=host_machine, hgs=hgs,
        enclave_call_mode=CallMode.SYNCHRONOUS, eval_batch_size=eval_batch_size,
    )
    server.catalog.create_cmk(enclave_cmk)
    server.catalog.create_cek(enclave_cek)
    conn = connect(server, registry, attestation_policy=attestation_policy)
    texts = explain_texts(server, conn)
    golden = json.loads(GOLDEN_EXPLAIN.read_text())[f"eval_batch_size={eval_batch_size}"]
    assert texts.keys() == golden.keys()
    for name in golden:
        assert texts[name] == golden[name], name
    assert "span tree:" in texts["point_seek.stats"]
    assert "enclave.eval" in texts["rnd_range_scan.analyze"]


def test_latch_waits_reach_the_waiting_statements_stats_per_level():
    """A contended latch wait is counted per hierarchy level, and those
    counters ride the waiting thread's record into its QueryStats — and
    from there into both EXPLAIN printers."""
    from repro.obs.latchprof import get_latch_profiler
    from repro.obs.querystats import format_explain_analyze

    profiler = get_latch_profiler()
    latch = "repro.sqlengine.storage.wal.WriteAheadLog._lock"
    level = profiler.level_of(latch)
    registry = get_registry()
    record = registry.open_record()
    try:
        profiler.record_wait(latch, 0.002)
        profiler.record_wait(latch, 0.001)
    finally:
        registry.settle(record)
        profiler.reset()
    stats = QueryStats.from_counts(record.counts, query_text="q")
    assert stats.latch_waits == 2
    assert stats.latch_wait_seconds == pytest.approx(0.003)
    assert stats.latch_level_waits == {
        f"latch.l{level:02d}_waits": 2,
        f"latch.l{level:02d}_wait_seconds": pytest.approx(0.003),
    }
    assert re.search(rf"latch\.l{level:02d}_waits\s+2 \(3\.000ms\)", format_explain_stats(stats))
    assert f"latch.l{level:02d}_waits=2 (3.000ms)" in format_explain_analyze(stats)
