"""The plan cache: one schema-version rule for staleness, a bound, and a
warm path that plans nothing.

A cached plan holds the chosen index object and compiled programs, so every
way the things it was built from can change is exercised here against a
cached text: the next execution must behave as a fresh server would.
"""

import sys
import threading

import pytest

from repro.client.driver import connect
from repro.crypto.aead import CellCipher, EncryptionScheme
from repro.crypto.dh import DiffieHellman
from repro.enclave.runtime import Enclave
from repro.errors import BindError, ExecutionError, TypeDeductionError
from repro.obs.metrics import get_registry
from repro.sqlengine import server as server_module
from repro.sqlengine.cells import Ciphertext
from repro.sqlengine.exec import plan as plan_module
from repro.sqlengine.scope import Scope
from repro.sqlengine.server import DescribeResult, SqlServer
from repro.sqlengine.sqlparser import ast
from repro.sqlengine.values import serialize_value
from repro.tools.rotation import rotate_cek_online, rotation_query_text
from repro.workloads.tpcc import TRANSACTION_MIX, EncryptionMode, TpccConfig, build_system
from tests.conftest import ALGO, make_encrypted_table

BY_DEPT = "SELECT id FROM emp WHERE dept = @d"


@pytest.fixture()
def emp(plain_server):
    """emp(id PK, dept, name) with a secondary index on dept; BY_DEPT cached as a seek."""
    session = plain_server.connect()
    session.execute("CREATE TABLE emp (id int PRIMARY KEY, dept int, name varchar(10))")
    session.execute("CREATE NONCLUSTERED INDEX ix_dept ON emp(dept)")
    for i in range(6):
        session.execute(
            "INSERT INTO emp (id, dept, name) VALUES (@i, @d, @n)",
            {"i": i, "d": i % 2, "n": f"n{i}"},
        )
    first = session.execute(BY_DEPT, {"d": 1})
    assert first.plan_info == "IndexSeek(ix_dept)"
    assert sorted(first.rows) == [(1,), (3,), (5,)]
    return session


def counter(name: str) -> int:
    return get_registry().value(name)


# -- staleness matrix ---------------------------------------------------------


def test_invalidated_index_is_not_sought_again(emp, plain_server):
    plain_server.engine.invalidate_index("emp", "ix_dept")
    # Index maintenance skips an invalid index, so a cached seek on it
    # would never see this row.
    emp.execute("INSERT INTO emp (id, dept, name) VALUES (7, 1, 'late')", {})
    result = emp.execute(BY_DEPT, {"d": 1})
    assert result.plan_info.startswith("TableScan")
    assert sorted(result.rows) == [(1,), (3,), (5,), (7,)]


def test_crash_and_recover_replans(emp, plain_server):
    plain_server.engine.checkpoint()
    plain_server.crash()
    plain_server.recover()
    session = plain_server.connect()
    session.execute("INSERT INTO emp (id, dept, name) VALUES (9, 1, 'post')", {})
    misses = plain_server.stats.plan_cache_misses
    result = session.execute(BY_DEPT, {"d": 1})
    # The plan's TableObject and IndexObject died with the crash: a cached
    # seek would read the pre-crash tree and miss the new row.
    assert sorted(result.rows) == [(1,), (3,), (5,), (9,)]
    assert result.plan_info == "IndexSeek(ix_dept)"
    assert plain_server.stats.plan_cache_misses == misses + 1


def test_pending_index_scans_until_keys_arrive_then_seeks(
    server, registry, attestation_policy, enclave_cmk, enclave_cek, enclave_binary,
    cek_material,
):
    server.catalog.create_cmk(enclave_cmk)
    server.catalog.create_cek(enclave_cek)
    conn = connect(server, registry, attestation_policy=attestation_policy)
    make_encrypted_table(conn)
    conn.execute_ddl("CREATE NONCLUSTERED INDEX T_V ON T(value)")
    for i in range(5):
        conn.execute("INSERT INTO T (id, value) VALUES (@i, @v)", {"i": i, "v": i})
    by_value = "SELECT id FROM T WHERE value = @v"
    assert conn.execute(by_value, {"v": 3}).plan_info.startswith("IndexSeek(T_V)")

    # Reboot: the new enclave has no keys, so the RND index cannot rebuild.
    server.engine.checkpoint()
    rebooted = Enclave(enclave_binary)
    server.crash()
    server.engine.enclave = server.enclave = rebooted
    assert "T_V" in server.recover().pending_indexes

    three = Ciphertext(
        CellCipher(cek_material).encrypt(serialize_value(3), EncryptionScheme.RANDOMIZED)
    )
    keyless = server.connect().execute(by_value, {"v": three})
    assert keyless.plan_info.startswith("TableScan")
    assert keyless.rows == [(3,)]

    # A client connecting with keys is what rebuilds the index (§4.5); the
    # plan cached while it was pending must not keep scanning.
    seeks = counter("executor.index_seeks")
    fresh = connect(server, registry, attestation_policy=attestation_policy)
    keyed = fresh.execute(by_value, {"v": 3})
    assert keyed.plan_info.startswith("IndexSeek(T_V)")
    assert keyed.rows == [(3,)]
    assert counter("executor.index_seeks") == seeks + 1
    server.shutdown()


def test_dropped_and_recreated_table_with_reordered_columns(emp):
    by_id = "SELECT id, name FROM emp WHERE id = @i"
    assert emp.execute(by_id, {"i": 2}).rows == [(2, "n2")]
    emp.execute("DROP TABLE emp")
    emp.execute("CREATE TABLE emp (name varchar(10), dept int, id int PRIMARY KEY)")
    emp.execute("INSERT INTO emp (id, dept, name) VALUES (2, 0, 'again')", {})
    assert emp.execute(by_id, {"i": 2}).rows == [(2, "again")]
    assert emp.execute("SELECT * FROM emp", {}).rows == [("again", 0, 2)]


def test_cached_select_across_online_rotation(rotation_stack_factory):
    stack = rotation_stack_factory()
    conn, server = stack.conn, stack.server
    make_encrypted_table(conn, "R", cek="RotOldCEK")
    for i in range(6):
        conn.execute("INSERT INTO R (id, value) VALUES (@i, @v)", {"i": i, "v": i * 10})
    by_value = "SELECT id FROM R WHERE value = @v"

    def described_cek() -> str:
        (parameter,) = server.describe_parameter_encryption(by_value).parameters
        return parameter.column_type.encryption.cek_name

    assert conn.execute(by_value, {"v": 30}).rows == [(3,)]
    assert described_cek() == "RotOldCEK"
    rotation_id = rotate_cek_online(conn, "R", "value", "RotNewCEK", batch_size=2, run=False)
    # Begin flipped the column: the cached describe payload and the compiled
    # enclave program both named the old CEK.
    assert described_cek() == "RotNewCEK"
    assert conn.execute(by_value, {"v": 30}).rows == [(3,)]
    more, __ = server.rotate_step(rotation_id)
    assert more
    assert conn.execute(by_value, {"v": 30}).rows == [(3,)]
    server.rotate_run(rotation_id)
    conn.invalidate_metadata_caches()
    assert conn.execute(by_value, {"v": 30}).rows == [(3,)]
    server.shutdown()


def test_cached_select_across_alter_column_encrypt_and_decrypt(
    server, registry, attestation_policy, enclave_cmk, enclave_cek
):
    server.catalog.create_cmk(enclave_cmk)
    server.catalog.create_cek(enclave_cek)
    conn = connect(server, registry, attestation_policy=attestation_policy)
    conn.execute_ddl("CREATE TABLE d (k int PRIMARY KEY, v varchar(20))")
    for k in range(4):
        conn.execute("INSERT INTO d (k, v) VALUES (@k, @v)", {"k": k, "v": f"val-{k}"})
    by_v = "SELECT k FROM d WHERE v = @v"
    plain = conn.execute(by_v, {"v": "val-2"})
    assert plain.rows == [(2,)] and plain.plan_info == "TableScan"
    conn.execute_ddl(
        "ALTER TABLE d ALTER COLUMN v varchar(20) ENCRYPTED WITH ("
        f"COLUMN_ENCRYPTION_KEY = TestCEK, ENCRYPTION_TYPE = Randomized, "
        f"ALGORITHM = '{ALGO}')",
        authorize_enclave=True,
    )
    encrypted = conn.execute(by_v, {"v": "val-2"})
    assert encrypted.rows == [(2,)]
    assert encrypted.stats.enclave_evals + encrypted.stats.enclave_eval_batches > 0
    conn.execute_ddl("ALTER TABLE d ALTER COLUMN v varchar(20)", authorize_enclave=True)
    decrypted = conn.execute(by_v, {"v": "val-2"})
    assert decrypted.rows == [(2,)] and decrypted.stats.ecalls == 0
    server.shutdown()


def test_eval_batch_size_is_read_per_execution(encrypted_table, server, enclave_binary,
                                               host_machine, hgs, registry,
                                               attestation_policy, enclave_cmk, enclave_cek):
    by_value = "SELECT id FROM T WHERE value > @v"

    def observed(srv, conn, size):
        srv.executor.eval_batch_size = size
        before = counter("enclave.ecalls")
        result = conn.execute(by_value, {"v": 40})
        return sorted(result.rows), result.plan_info, counter("enclave.ecalls") - before

    # What a fresh server at each size does with a warm text ...
    expected = {}
    for size in (64, 1):
        fresh = SqlServer(
            enclave=Enclave(enclave_binary), host_machine=host_machine, hgs=hgs,
            eval_batch_size=size,
        )
        fresh.catalog.create_cmk(enclave_cmk)
        fresh.catalog.create_cek(enclave_cek)
        conn = connect(fresh, registry, attestation_policy=attestation_policy)
        make_encrypted_table(conn)
        for i in range(10):
            conn.execute("INSERT INTO T (id, value) VALUES (@id, @v)", {"id": i, "v": i * 10})
        conn.execute(by_value, {"v": 40})
        expected[size] = observed(fresh, conn, size)
        fresh.shutdown()
    assert "BatchedFilter(batch=64)" in expected[64][1]
    assert "BatchedFilter" not in expected[1][1]
    assert expected[1][2] > expected[64][2]

    # ... is what one live server does when the size flips under one cached plan.
    encrypted_table.execute(by_value, {"v": 40})
    misses = server.stats.plan_cache_misses
    for size in (64, 1, 64):
        assert observed(server, encrypted_table, size) == expected[size]
    assert server.stats.plan_cache_misses == misses
    server.shutdown()


UNPLANNABLE = [
    ("SELECT nope FROM T", BindError),
    ("SELECT id, COUNT(*) FROM T", BindError),
    ("SELECT id FROM T WHERE value = 3", TypeDeductionError),
    ("SELECT id FROM T ORDER BY value", TypeDeductionError),
    ("SELECT value, COUNT(*) FROM T GROUP BY value", ExecutionError),
    ("SELECT DISTINCT value FROM T", ExecutionError),
]


def test_unplannable_statement_fails_the_same_way_twice_and_is_not_cached(
    encrypted_table, server
):
    entries = len(server._plan_cache)
    for query, error in UNPLANNABLE:
        messages = []
        for __ in range(2):
            with pytest.raises(error) as raised:
                encrypted_table.execute(query, {})
            assert type(raised.value) is error, query
            messages.append(str(raised.value))
        assert messages[0] == messages[1], query
    assert len(server._plan_cache) == entries
    server.shutdown()


def test_two_threads_first_executing_one_text_leave_one_entry(emp, plain_server):
    by_name = "SELECT id FROM emp WHERE name = @n"
    entries = len(plain_server._plan_cache)
    barrier = threading.Barrier(2)
    rows: list = []

    def first_execution():
        session = plain_server.connect()
        barrier.wait(timeout=10)
        rows.append(session.execute(by_name, {"n": "n4"}).rows)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=first_execution) for __ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert rows == [[(4,)], [(4,)]]
    assert len(plain_server._plan_cache) == entries + 1


# -- bound --------------------------------------------------------------------------


def test_cache_is_bounded_by_lru(emp, plain_server):
    emp.execute(BY_DEPT, {"d": 1})
    for i in range(1100):
        emp.execute(f"SELECT name FROM emp WHERE id = {i}", {})
        if i % 100 == 0:
            emp.execute(BY_DEPT, {"d": 1})  # recently used: never the victim
    assert len(plain_server._plan_cache) <= server_module.PLAN_CACHE_CAPACITY == 1024
    misses = plain_server.stats.plan_cache_misses
    emp.execute(BY_DEPT, {"d": 1})
    emp.execute("SELECT name FROM emp WHERE id = 1099", {})
    assert plain_server.stats.plan_cache_misses == misses
    emp.execute("SELECT name FROM emp WHERE id = 0", {})  # evicted long ago
    assert plain_server.stats.plan_cache_misses == misses + 1


# -- warm-path guard ----------------------------------------------------------------


@pytest.mark.parametrize("mode", [EncryptionMode.PLAINTEXT, EncryptionMode.RND], ids=["pt", "rnd"])
def test_warm_tpcc_transactions_plan_nothing(mode, monkeypatch):
    system = build_system(
        TpccConfig(mode=mode, warehouses=1, districts_per_warehouse=2,
                   customers_per_district=12, items=20)
    )
    try:
        for kind, __ in TRANSACTION_MIX:
            system.transactions.run_one(kind)
        system.transactions.run_mix(25, TRANSACTION_MIX)

        calls: list[str] = []

        def spy(owner, name):
            original = getattr(owner, name)

            def spied(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, spied)

        for name in ("extract_sargs", "choose_access_path", "compile_expression"):
            spy(plan_module, name)
        spy(Scope, "resolve")
        spy(ast, "statement_params")

        stats = system.server.stats
        hits, misses = stats.plan_cache_hits, stats.plan_cache_misses
        entries = len(system.server._plan_cache)
        system.transactions.run_mix(50, TRANSACTION_MIX)
        assert calls == []
        assert stats.plan_cache_misses == misses
        assert stats.plan_cache_hits > hits
        assert len(system.server._plan_cache) == entries
    finally:
        system.shutdown()


# -- the shared describe result -------------------------------------------------------


def _rebuilt(plan) -> DescribeResult:
    """The describe result ``plan`` was built with, built again."""
    return DescribeResult(
        list(plan.parameters), dict(plan.parameter_ceks), list(plan.enclave_ceks)
    )


def test_every_shared_describe_is_still_what_its_plan_built():
    """A planned text's describe result is built with its plan and shared
    by every describe of the text: after a mixed paper-mode ``tpcc_rnd``
    deck (a describe per execute, parameters encrypted, results decrypted,
    enclave keys shipped), none was changed by anyone it was handed to."""
    system = build_system(
        TpccConfig(mode=EncryptionMode.RND, warehouses=1, districts_per_warehouse=2,
                   customers_per_district=12, items=20)
    )
    try:
        for kind, __ in TRANSACTION_MIX:
            system.transactions.run_one(kind)
        system.transactions.run_mix(40, TRANSACTION_MIX)
        server = system.server
        plans = {text: plan for text, plan in server._plan_cache.items() if plan.describe}
        assert any(plan.describe.encrypted_parameters for plan in plans.values())
        assert any(plan.describe.enclave_ceks for plan in plans.values())
        for text, plan in plans.items():
            assert plan.describe == _rebuilt(plan), text
            assert plan.describe.attestation is None, text
        # Every text the deck ran (not a loader text the schema outdated)
        # is described with its plan's own result.
        current = [text for text, plan in plans.items()
                   if plan.version == server.catalog.schema_version]
        assert len(current) > 10
        for text in current:
            assert server.describe_parameter_encryption(text) is plans[text].describe
    finally:
        system.shutdown()


def test_a_describe_that_attests_answers_with_a_copy(ae_connection, server):
    make_encrypted_table(ae_connection)
    ae_connection.execute("INSERT INTO T (id, value) VALUES (@i, @v)", {"i": 1, "v": 10})
    by_value = "SELECT id FROM T WHERE value = @v"
    assert ae_connection.execute(by_value, {"v": 10}).rows == [(1,)]
    plan = server._plan_cache[by_value]
    shared = plan.describe

    attested = server.describe_parameter_encryption(
        by_value, client_dh_public=DiffieHellman().public_key
    )

    assert attested.attestation is not None
    assert attested is not shared and attested != shared
    assert (attested.parameters, attested.parameter_ceks, attested.enclave_ceks) == (
        shared.parameters, shared.parameter_ceks, shared.enclave_ceks
    )
    assert shared.attestation is None and shared == _rebuilt(plan)
    assert server.describe_parameter_encryption(by_value) is shared


def test_a_mid_rotation_alter_column_describe_names_both_keys(rotation_stack_factory):
    """A DDL's describe is read per call: a rotation's progress moves what it
    names without any schema version bump."""
    stack = rotation_stack_factory()
    conn, server = stack.conn, stack.server
    make_encrypted_table(conn, "R", cek="RotOldCEK")
    for i in range(6):
        conn.execute("INSERT INTO R (id, value) VALUES (@i, @v)", {"i": i, "v": i * 10})
    to_third = (
        "ALTER TABLE R ALTER COLUMN value int ENCRYPTED WITH ("
        f"COLUMN_ENCRYPTION_KEY = RotThirdCEK, ENCRYPTION_TYPE = Randomized, ALGORITHM = '{ALGO}')"
    )

    def named(ddl: str) -> list[str]:
        return [m.cek.name for m in server.describe_parameter_encryption(ddl).enclave_ceks]

    online = rotation_query_text("R", "value", "RotNewCEK")
    assert named(online) == ["RotOldCEK", "RotNewCEK"]
    assert named(to_third) == ["RotOldCEK", "RotThirdCEK"]
    rotation_id = rotate_cek_online(conn, "R", "value", "RotNewCEK", batch_size=2, run=False)
    more, __ = server.rotate_step(rotation_id)
    assert more
    assert named(online) == ["RotOldCEK", "RotNewCEK"]
    assert named(to_third) == ["RotOldCEK", "RotNewCEK", "RotThirdCEK"]
    server.rotate_run(rotation_id)
    assert named(to_third) == ["RotNewCEK", "RotThirdCEK"]
    server.shutdown()


def test_concurrent_paper_mode_clients_share_describes_and_plans(
    ae_connection, server, registry, attestation_policy
):
    """Four attested paper-mode connections on one server interleave a
    plaintext seek, an enclave seek and a fetch of the RND column: each
    describe hands out its plan's shared result and each statement's lookup
    may skip the plan lock, and neither may answer for another text."""
    make_encrypted_table(ae_connection)
    for i in range(8):
        ae_connection.execute("INSERT INTO T (id, value) VALUES (@i, @v)", {"i": i, "v": i * 10})
    by_id = "SELECT id FROM T WHERE id = @i"
    by_value = "SELECT id FROM T WHERE value = @v"
    fetch = "SELECT value FROM T WHERE id = @i"
    barrier = threading.Barrier(4)
    wrong: list = []
    finished: list[int] = []

    def client(seed: int) -> None:
        conn = connect(server, registry, attestation_policy=attestation_policy,
                       cache_describe_results=False)
        assert conn.execute(by_value, {"v": 10}).rows == [(1,)]     # attests
        barrier.wait(timeout=10)
        for n in range(40):
            i = (seed + n) % 8
            for text, params, expected in ((by_id, {"i": i}, [(i,)]),
                                           (by_value, {"v": i * 10}, [(i,)]),
                                           (fetch, {"i": i}, [(i * 10,)])):
                rows = conn.execute(text, params).rows
                if rows != expected:
                    wrong.append((text, params, rows))
        finished.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert sorted(finished) == [0, 1, 2, 3] and wrong == []
    for text in (by_id, by_value, fetch):
        plan = server._plan_cache[text]
        assert plan.describe == _rebuilt(plan) and plan.describe.attestation is None
    server.shutdown()
