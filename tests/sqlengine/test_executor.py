"""The executor + planner through the server session (plaintext paths)."""

import pytest

from repro.errors import BindError, ExecutionError, TypeDeductionError
from repro.sqlengine.server import SqlServer
from tests.conftest import make_encrypted_table


@pytest.fixture()
def session(plain_server):
    s = plain_server.connect()
    s.execute(
        "CREATE TABLE emp (id int NOT NULL, name varchar(30), dept int, "
        "salary float, PRIMARY KEY (id))"
    )
    s.execute("CREATE TABLE dept (did int NOT NULL, dname varchar(20), PRIMARY KEY (did))")
    for did, dname in [(1, "eng"), (2, "sales"), (3, "empty")]:
        s.execute("INSERT INTO dept (did, dname) VALUES (@d, @n)", {"d": did, "n": dname})
    rows = [
        (1, "ada", 1, 120.0),
        (2, "bob", 1, 95.0),
        (3, "cal", 2, 80.0),
        (4, "dee", 2, 110.0),
        (5, "eve", 1, None),
    ]
    for r in rows:
        s.execute(
            "INSERT INTO emp (id, name, dept, salary) VALUES (@i, @n, @d, @s)",
            {"i": r[0], "n": r[1], "d": r[2], "s": r[3]},
        )
    return s


class TestSelect:
    def test_select_star(self, session):
        r = session.execute("SELECT * FROM emp WHERE id = @i", {"i": 3})
        assert r.rows == [(3, "cal", 2, 80.0)]
        assert [c.name for c in r.columns] == ["id", "name", "dept", "salary"]

    def test_projection(self, session):
        r = session.execute("SELECT name FROM emp WHERE id = 1", {})
        assert r.rows == [("ada",)]

    def test_computed_projection(self, session):
        r = session.execute("SELECT salary * 2 FROM emp WHERE id = 1", {})
        assert r.rows == [(240.0,)]

    def test_range_predicate(self, session):
        r = session.execute("SELECT id FROM emp WHERE salary >= @s", {"s": 100.0})
        assert sorted(x[0] for x in r.rows) == [1, 4]

    def test_null_never_matches(self, session):
        r = session.execute("SELECT id FROM emp WHERE salary > 0", {})
        assert 5 not in [x[0] for x in r.rows]

    def test_is_null(self, session):
        r = session.execute("SELECT id FROM emp WHERE salary IS NULL", {})
        assert r.rows == [(5,)]

    def test_like(self, session):
        r = session.execute("SELECT id FROM emp WHERE name LIKE @p", {"p": "%e"})
        assert sorted(x[0] for x in r.rows) == [4, 5]

    def test_between(self, session):
        r = session.execute("SELECT id FROM emp WHERE salary BETWEEN 90 AND 115", {})
        assert sorted(x[0] for x in r.rows) == [2, 4]

    def test_in_list(self, session):
        r = session.execute("SELECT id FROM emp WHERE id IN (1, 3, 99)", {})
        assert sorted(x[0] for x in r.rows) == [1, 3]

    def test_or_and_not(self, session):
        r = session.execute(
            "SELECT id FROM emp WHERE (dept = 1 OR dept = 2) AND NOT name = 'bob'", {}
        )
        assert sorted(x[0] for x in r.rows) == [1, 3, 4, 5]

    def test_order_by(self, session):
        r = session.execute("SELECT name, salary FROM emp ORDER BY salary DESC", {})
        assert [x[0] for x in r.rows] == ["ada", "dee", "bob", "cal", "eve"]  # NULL last in DESC

    def test_order_by_asc_nulls_first(self, session):
        r = session.execute("SELECT name, salary FROM emp ORDER BY salary", {})
        assert r.rows[0][0] == "eve"

    def test_limit(self, session):
        r = session.execute("SELECT id FROM emp ORDER BY id LIMIT 2", {})
        assert [x[0] for x in r.rows] == [1, 2]

    def test_distinct(self, session):
        r = session.execute("SELECT DISTINCT dept FROM emp", {})
        assert sorted(x[0] for x in r.rows) == [1, 2]

    def test_missing_param_rejected(self, session):
        with pytest.raises(ExecutionError, match="parameter"):
            session.execute("SELECT id FROM emp WHERE id = @i", {})

    def test_unknown_column_rejected(self, session):
        with pytest.raises(BindError):
            session.execute("SELECT nope FROM emp", {})


class TestAggregation:
    def test_count_star(self, session):
        r = session.execute("SELECT COUNT(*) FROM emp", {})
        assert r.rows == [(5,)]

    def test_count_column_skips_nulls(self, session):
        r = session.execute("SELECT COUNT(salary) FROM emp", {})
        assert r.rows == [(4,)]

    def test_group_by_with_aggregates(self, session):
        r = session.execute(
            "SELECT dept, COUNT(*) AS n, SUM(salary) AS total FROM emp GROUP BY dept", {}
        )
        by_dept = {row[0]: (row[1], row[2]) for row in r.rows}
        assert by_dept[1] == (3, 215.0)
        assert by_dept[2] == (2, 190.0)

    def test_min_max_avg(self, session):
        r = session.execute("SELECT MIN(salary), MAX(salary), AVG(salary) FROM emp", {})
        low, high, avg = r.rows[0]
        assert (low, high) == (80.0, 120.0)
        assert abs(avg - 101.25) < 1e-9

    def test_empty_group_aggregates(self, session):
        r = session.execute("SELECT COUNT(*) FROM emp WHERE id > 100", {})
        assert r.rows == [(0,)]

    def test_sum_over_empty_is_null(self, session):
        r = session.execute("SELECT SUM(salary) FROM emp WHERE id > 100", {})
        assert r.rows == [(None,)]

    def test_non_grouped_item_rejected(self, session):
        with pytest.raises(BindError):
            session.execute("SELECT name, COUNT(*) FROM emp GROUP BY dept", {})

    def test_group_by_order_by(self, session):
        r = session.execute(
            "SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept ORDER BY dept", {}
        )
        assert [row[0] for row in r.rows] == [1, 2]


class TestJoins:
    def test_hash_join(self, session):
        r = session.execute(
            "SELECT name, dname FROM emp JOIN dept ON dept = did WHERE salary > 100", {}
        )
        assert sorted(r.rows) == [("ada", "eng"), ("dee", "sales")]

    def test_join_preserves_all_matches(self, session):
        r = session.execute("SELECT name, dname FROM emp JOIN dept ON dept = did", {})
        assert len(r.rows) == 5

    def test_empty_dept_joins_nothing(self, session):
        r = session.execute(
            "SELECT name FROM emp JOIN dept ON dept = did WHERE dname = 'empty'", {}
        )
        assert r.rows == []

    def test_qualified_names(self, session):
        r = session.execute(
            "SELECT e.name FROM emp e JOIN dept d ON e.dept = d.did WHERE d.dname = 'eng'",
            {},
        )
        assert sorted(x[0] for x in r.rows) == ["ada", "bob", "eve"]


class TestDml:
    def test_update(self, session):
        session.execute("UPDATE emp SET salary = @s WHERE id = @i", {"s": 999.0, "i": 2})
        r = session.execute("SELECT salary FROM emp WHERE id = 2", {})
        assert r.rows == [(999.0,)]

    def test_update_rowcount(self, session):
        r = session.execute("UPDATE emp SET dept = 9 WHERE dept = 1", {})
        assert r.rowcount == 3

    def test_delete(self, session):
        r = session.execute("DELETE FROM emp WHERE dept = @d", {"d": 2})
        assert r.rowcount == 2
        r = session.execute("SELECT COUNT(*) FROM emp", {})
        assert r.rows == [(3,)]

    def test_update_expression(self, session):
        session.execute("UPDATE emp SET salary = salary + 10 WHERE id = 1", {})
        r = session.execute("SELECT salary FROM emp WHERE id = 1", {})
        assert r.rows == [(130.0,)]

    def test_transaction_rollback(self, session):
        session.execute("BEGIN TRANSACTION")
        session.execute("DELETE FROM emp", {})
        session.execute("ROLLBACK")
        r = session.execute("SELECT COUNT(*) FROM emp", {})
        assert r.rows == [(5,)]

    def test_transaction_commit(self, session):
        session.execute("BEGIN TRANSACTION")
        session.execute("DELETE FROM emp WHERE id = 1", {})
        session.execute("COMMIT")
        r = session.execute("SELECT COUNT(*) FROM emp", {})
        assert r.rows == [(4,)]


class TestPlanner:
    def test_pk_seek_chosen(self, session):
        r = session.execute("SELECT * FROM emp WHERE id = @i", {"i": 1})
        assert "IndexSeek(pk_emp)" in r.plan_info

    def test_scan_when_no_index(self, session):
        r = session.execute("SELECT * FROM emp WHERE salary = 80.0", {})
        assert "TableScan" in r.plan_info

    def test_secondary_index_range(self, session):
        session.execute("CREATE NONCLUSTERED INDEX ix_sal ON emp (salary)")
        r = session.execute("SELECT id FROM emp WHERE salary > @s", {"s": 100.0})
        assert "IndexRangeScan(ix_sal)" in r.plan_info
        assert sorted(x[0] for x in r.rows) == [1, 4]

    def test_composite_prefix(self, session):
        session.execute("CREATE NONCLUSTERED INDEX ix_ds ON emp (dept, salary)")
        r = session.execute(
            "SELECT id FROM emp WHERE dept = @d AND salary >= @s", {"d": 1, "s": 100.0}
        )
        assert "ix_ds" in r.plan_info
        assert sorted(x[0] for x in r.rows) == [1]


class TestRangeBounds:
    """A range scan reads the rows inside its bounds and no more: an
    exclusive upper bound stops at the key equal to it."""

    @pytest.mark.parametrize(
        "where, returned",
        [
            ("id >= @lo AND id < @hi", 10),
            ("id > @lo AND id < @hi", 9),
            ("id > @lo AND id <= @hi", 10),
            ("id >= @lo AND id <= @hi", 11),
        ],
    )
    def test_scanned_rows_are_the_returned_rows(self, plain_server, where, returned):
        s = plain_server.connect()
        s.execute("CREATE TABLE T (id int NOT NULL, PRIMARY KEY (id))")
        for i in range(100):
            s.execute("INSERT INTO T (id) VALUES (@i)", {"i": i})
        r = s.execute(f"SELECT id FROM T WHERE {where}", {"lo": 10, "hi": 20})
        assert "IndexRangeScan" in r.plan_info
        assert len(r.rows) == returned
        assert r.stats.rows_scanned == returned

    def test_exclusive_bound_on_rnd_index_costs_no_more_comparisons(self, ae_connection):
        conn = ae_connection
        make_encrypted_table(conn)
        conn.execute_ddl("CREATE INDEX T_VALUE ON T(value)", authorize_enclave=True)
        for i in range(40):
            conn.execute("INSERT INTO T (id, value) VALUES (@id, @v)", {"id": i, "v": i})
        stats = {}
        for op in ("<", "<="):
            query = f"SELECT id FROM T WHERE value {op} @hi"
            conn.execute(query, {"hi": 20})  # warm: plan, describe, CEKs
            r = conn.execute(query, {"hi": 20})
            assert "IndexRangeScan(T_VALUE)" in r.stats.plan_info
            stats[op] = r.stats
        assert stats["<"].rows_returned == 20 and stats["<="].rows_returned == 21
        assert stats["<"].rows_scanned == 20
        assert stats["<"].enclave_comparisons <= stats["<="].enclave_comparisons
