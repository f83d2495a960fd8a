"""Executor-level batched enclave evaluation.

The executor routes every predicate through
``StackMachine.eval_predicate_batch``; enclave-requiring ones ship
eval_batch_size rows per boundary crossing, host-only ones never cross.
These tests pin result equivalence, the plan annotations, the
per-statement telemetry, and the knob value (1) that makes every chunk
one row.
"""

import pytest

from repro.client.driver import connect
from repro.sqlengine.server import SqlServer
from tests.conftest import ALGO, make_encrypted_table

EXPECT_GT_30 = [4, 5, 6, 7, 8, 9]  # ids of T rows with value > 30 (value = id*10)


def make_server(enclave, host_machine, hgs, **kwargs):
    return SqlServer(
        enclave=enclave, host_machine=host_machine, hgs=hgs, lock_timeout_s=0.3,
        **kwargs,
    )


def populate(server, registry, attestation_policy, enclave_cmk, enclave_cek, n=10):
    server.catalog.create_cmk(enclave_cmk)
    server.catalog.create_cek(enclave_cek)
    conn = connect(server, registry, attestation_policy=attestation_policy)
    make_encrypted_table(conn)
    for i in range(n):
        conn.execute("INSERT INTO T (id, value) VALUES (@id, @v)", {"id": i, "v": i * 10})
    return conn


class TestBatchedFilter:
    def test_results_match_row_at_a_time(
        self, enclave_binary, host_machine, hgs, registry, attestation_policy,
        enclave_cmk, enclave_cek,
    ):
        from repro.enclave.runtime import Enclave

        results = {}
        for batch_size in (1, 3, 64):
            server = make_server(
                Enclave(enclave_binary), host_machine, hgs, eval_batch_size=batch_size
            )
            conn = populate(server, registry, attestation_policy, enclave_cmk, enclave_cek)
            r = conn.execute("SELECT id FROM T WHERE value > @v", {"v": 30})
            results[batch_size] = sorted(row[0] for row in r.rows)
            if server.gateway is not None:
                server.gateway.shutdown()
        assert results[1] == results[3] == results[64] == EXPECT_GT_30

    def test_plan_annotates_batched_filter(self, encrypted_table):
        r = encrypted_table.execute("SELECT id FROM T WHERE value > @v", {"v": 30})
        assert "BatchedFilter(batch=64)" in r.plan_info

    def test_host_only_predicate_not_annotated(self, encrypted_table):
        r = encrypted_table.execute("SELECT id FROM T WHERE id > @v", {"v": 5})
        assert "BatchedFilter" not in r.plan_info

    def test_stats_report_batched_rows(self, encrypted_table):
        r = encrypted_table.execute("SELECT id FROM T WHERE value > @v", {"v": 30})
        assert r.stats is not None
        assert r.stats.enclave_eval_batches >= 1
        assert r.stats.enclave_batched_rows == 10  # whole table in one chunk
        # All 10 predicate rows crossed the boundary in far fewer
        # transitions than rows.
        assert r.stats.boundary_transitions < 10

    def test_explain_stats_shows_batch_rows(self, encrypted_table):
        text = encrypted_table.explain_stats(
            "SELECT id FROM T WHERE value > @v", {"v": 30}
        )
        assert "enclave_eval_batches" in text
        assert "enclave_batched_rows" in text

    def test_batch_size_one_disables_batching(
        self, enclave_binary, host_machine, hgs, registry, attestation_policy,
        enclave_cmk, enclave_cek,
    ):
        from repro.enclave.runtime import Enclave

        server = make_server(
            Enclave(enclave_binary), host_machine, hgs, eval_batch_size=1
        )
        conn = populate(server, registry, attestation_policy, enclave_cmk, enclave_cek)
        r = conn.execute("SELECT id FROM T WHERE value > @v", {"v": 30})
        assert "BatchedFilter" not in r.plan_info
        assert r.stats.enclave_eval_batches == 0
        assert sorted(row[0] for row in r.rows) == EXPECT_GT_30
        server.gateway.shutdown()


class TestOpenOncePerEcall:
    """The tier-1 pin of docs/PERF.md "Open once per ecall": one ecall per
    (comparison, chunk), one open per cell plus one per shared parameter
    per ecall — and paper mode exactly what it always cost."""

    ROWS = 256
    RANGE = "SELECT id FROM W WHERE value > @lo AND value < @hi"
    LIKE = "SELECT id FROM W WHERE name LIKE @p"

    def test_exact_ecalls_and_cell_opens(
        self, enclave, host_machine, hgs, registry, attestation_policy,
        enclave_cmk, enclave_cek,
    ):
        server = make_server(enclave, host_machine, hgs)
        server.catalog.create_cmk(enclave_cmk)
        server.catalog.create_cek(enclave_cek)
        conn = connect(server, registry, attestation_policy=attestation_policy)
        enc = (
            "ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = TestCEK, "
            f"ENCRYPTION_TYPE = Randomized, ALGORITHM = '{ALGO}')"
        )
        conn.execute_ddl(
            f"CREATE TABLE W (id int PRIMARY KEY, value int {enc}, name varchar(20) {enc})"
        )
        table = [(i, (i * 37) % self.ROWS, f"{'xyz'[i % 3]}{i:03d}") for i in range(self.ROWS)]
        for i, value, name in table:
            conn.execute(
                "INSERT INTO W (id, value, name) VALUES (@i, @v, @n)",
                {"i": i, "v": value, "n": name},
            )
        range_rows = sorted(i for i, value, __ in table if 100 < value < 120)
        like_rows = sorted(i for i, __, name in table if name.startswith("x"))
        # (eval_batch_size, statement, parameters, oracle, ecalls, cell opens)
        cases = [
            (64, self.RANGE, {"lo": 100, "hi": 120}, range_rows, 8, 8 * 65),
            (64, self.LIKE, {"p": "x%"}, like_rows, 4, 4 * 65),
            (1, self.RANGE, {"lo": 100, "hi": 120}, range_rows, 512, 1024),
            (1, self.LIKE, {"p": "x%"}, like_rows, 256, 512),
        ]
        try:
            for batch_size, query, params, oracle, ecalls, opens in cases:
                server.executor.eval_batch_size = batch_size
                conn.execute(query, params)  # registers the programs
                result = conn.execute(query, params)
                assert sorted(row[0] for row in result.rows) == oracle
                assert (result.stats.ecalls, result.stats.enclave_cell_decrypts) == (
                    ecalls, opens
                ), (batch_size, query)
        finally:
            server.gateway.shutdown()


class TestBatchProbeKnob:
    @pytest.mark.parametrize("batch_size, expect_batched", [(1, False), (64, True)])
    def test_eval_batch_size_gates_index_node_probes(
        self, batch_size, expect_batched, enclave_binary, host_machine, hgs,
        registry, attestation_policy, enclave_cmk, enclave_cek,
    ):
        from repro.enclave.runtime import Enclave

        enclave = Enclave(enclave_binary)
        server = make_server(
            enclave, host_machine, hgs, eval_batch_size=batch_size
        )
        conn = populate(server, registry, attestation_policy, enclave_cmk, enclave_cek)
        conn.execute_ddl("CREATE NONCLUSTERED INDEX T_VALUE ON T(value)")
        # With batching disabled the tree must descend by binary search —
        # one compare ecall per step, never a node-level compare_batch.
        batched = enclave.counters.compare_batches > 0
        assert batched is expect_batched
        r = conn.execute("SELECT id FROM T WHERE value > @v", {"v": 30})
        assert sorted(row[0] for row in r.rows) == EXPECT_GT_30
        server.gateway.shutdown()


class TestBatchedNestedLoopJoin:
    @pytest.fixture()
    def joined(self, ae_connection):
        conn = ae_connection
        make_encrypted_table(conn, name="A")
        conn.execute_ddl(
            "CREATE TABLE B (bid int PRIMARY KEY, "
            f"bval int ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = TestCEK, "
            f"ENCRYPTION_TYPE = Randomized, ALGORITHM = '{ALGO}'))"
        )
        for i in range(5):
            conn.execute("INSERT INTO A (id, value) VALUES (@i, @v)", {"i": i, "v": i})
            conn.execute("INSERT INTO B (bid, bval) VALUES (@i, @v)", {"i": i, "v": i})
        return conn

    def test_rnd_join_is_batched_and_correct(self, joined):
        r = joined.execute(
            "SELECT A.id, B.bid FROM A JOIN B ON A.value = B.bval", {}
        )
        assert "NestedLoopJoin(batch=64)" in r.plan_info
        assert sorted((row[0], row[1]) for row in r.rows) == [(i, i) for i in range(5)]


class TestBatchedDml:
    def test_update_through_batched_qualification(self, encrypted_table):
        conn = encrypted_table
        r = conn.execute(
            "UPDATE T SET value = @new WHERE value > @v", {"new": 999, "v": 70}
        )
        assert r.rowcount == 2  # values 80, 90
        check = conn.execute("SELECT id FROM T WHERE value = @n", {"n": 999})
        assert sorted(row[0] for row in check.rows) == [8, 9]

    def test_delete_through_batched_qualification(self, encrypted_table):
        conn = encrypted_table
        r = conn.execute("DELETE FROM T WHERE value > @v", {"v": 30})
        assert r.rowcount == len(EXPECT_GT_30)
        left = conn.execute("SELECT id FROM T WHERE id >= @z", {"z": 0})
        assert sorted(row[0] for row in left.rows) == [0, 1, 2, 3]


class TestBatchedOrderBy:
    NAMES = ["delta", "alpha", "charlie", "bravo", "echo", "bravo"]

    def build(self, server, registry, attestation_policy, enclave_cmk, enclave_cek):
        server.catalog.create_cmk(enclave_cmk)
        server.catalog.create_cek(enclave_cek)
        conn = connect(server, registry, attestation_policy=attestation_policy)
        conn.execute_ddl(
            "CREATE TABLE S (k int PRIMARY KEY, "
            f"name varchar(20) ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = TestCEK, "
            f"ENCRYPTION_TYPE = Randomized, ALGORITHM = '{ALGO}'))"
        )
        for k, name in enumerate(self.NAMES):
            conn.execute("INSERT INTO S (k, name) VALUES (@k, @n)", {"k": k, "n": name})
        return conn

    @pytest.mark.parametrize("batch_size", [1, 64])
    def test_sorted_identically_batched_and_not(
        self, batch_size, enclave_binary, host_machine, hgs, registry,
        attestation_policy, enclave_cmk, enclave_cek,
    ):
        from repro.enclave.runtime import Enclave

        server = make_server(
            Enclave(enclave_binary), host_machine, hgs,
            allow_enclave_order_by=True, eval_batch_size=batch_size,
        )
        conn = self.build(server, registry, attestation_policy, enclave_cmk, enclave_cek)
        result = conn.execute("SELECT k, name FROM S ORDER BY name", {})
        assert [row[1] for row in result.rows] == sorted(self.NAMES)
        server.gateway.shutdown()

    def test_batched_sort_uses_compare_batch_ecalls(
        self, enclave_binary, host_machine, hgs, registry, attestation_policy,
        enclave_cmk, enclave_cek,
    ):
        from repro.enclave.runtime import Enclave

        enclave = Enclave(enclave_binary)
        server = make_server(
            enclave, host_machine, hgs, allow_enclave_order_by=True
        )
        conn = self.build(server, registry, attestation_policy, enclave_cmk, enclave_cek)
        before = enclave.counters.compare_batches
        conn.execute("SELECT name FROM S ORDER BY name DESC", {})
        assert enclave.counters.compare_batches > before
        server.gateway.shutdown()
