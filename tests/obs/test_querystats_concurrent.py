"""Per-statement stats stay exact when statements run concurrently.

The regression this file pins: QueryStats used to be computed as global
registry deltas (value-after minus value-before), which is only correct
when one statement runs at a time — two concurrent statements would bleed
their counter increments into each other's stats. Statement records
(:class:`repro.obs.metrics.StatementRecord`) fix this: each collector
opens a record on its own thread, every ``Counter.inc`` lands in the
record of *its* thread, and the enclave gateway hands the submitting
statement's record across the queued-worker boundary and back.
"""

from __future__ import annotations

import itertools
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.attestation.hgs import AttestationPolicy, HostGuardianService
from repro.client.driver import connect
from repro.enclave.runtime import Enclave
from repro.enclave.worker import CallMode, EnclaveCallGateway
from repro.obs.metrics import get_registry
from repro.obs.querystats import _DRIVER_DELTA_FIELDS, _SERVER_DELTA_FIELDS
from repro.obs.tracing import get_tracer
from repro.sqlengine.server import SqlServer
from tests.conftest import make_encrypted_table

POINT_LOOKUP = "SELECT id, value FROM T WHERE value = @v"


class TestAttributionContext:
    """The three attribution behaviours, on the statement record."""

    def test_context_captures_only_its_own_threads_increments(self):
        registry = get_registry()
        counter = registry.counter("ctxtest.hits")
        before = counter.value
        record = registry.open_record()
        try:
            counter.inc()                     # this thread: attributed

            def other_thread():
                counter.inc(5)                # no record there: straight in
                seen.append(counter.value)

            seen: list[int] = []
            thread = threading.Thread(target=other_thread)
            thread.start()
            thread.join()
            # Another thread's open statement shows when it ends; the
            # owner reads its own pending count.
            assert seen == [before + 5]
            assert counter.value == before + 6
        finally:
            registry.settle(record)
        counter.inc()                         # after settle: unattributed
        assert record.counts[counter] == 1
        assert counter.value == before + 7

    def test_adopt_contexts_attributes_worker_increments(self):
        """The QUEUED gateway hands the submitter's record to the worker
        and gets it back with the verdicts — also when the ecall raises."""
        self._hand_over_and_back(ecall_raises=False)
        self._hand_over_and_back(ecall_raises=True)

    def _hand_over_and_back(self, ecall_raises: bool) -> None:
        registry = get_registry()
        counter = registry.counter("ctxtest.adopted")
        before = counter.value
        workers: list[str] = []

        def ecall():
            counter.inc(3)
            workers.append(threading.current_thread().name)
            assert registry.thread.record is record   # adopted, not copied
            if ecall_raises:
                raise ValueError("ecall failed")
            return [True]

        class FakeEnclave:
            def eval(self, handle, inputs):
                return ecall()

        with EnclaveCallGateway(FakeEnclave(), mode=CallMode.QUEUED, n_threads=1) as gateway:
            record = registry.open_record()
            try:
                if ecall_raises:
                    with pytest.raises(ValueError):
                        gateway.eval(1, [])
                else:
                    assert gateway.eval(1, []) == [True]
                # Back with the submitter: its own increments keep landing
                # in the same record, and nothing has reached the counter.
                counter.inc()
                assert record.counts[counter] == 4
            finally:
                registry.settle(record)
            worker_thread = next(t for t in gateway._threads)
            assert workers == [worker_thread.name]
        assert counter.value == before + 4
        assert record.counts[registry.counter("worker.calls")] == 1

    def test_nested_contexts_both_receive(self):
        registry = get_registry()
        counter = registry.counter("ctxtest.nested")
        before = counter.value
        outer = registry.open_record()
        try:
            counter.inc()
            inner = registry.open_record()
            try:
                counter.inc(2)
            finally:
                registry.settle(inner)
            assert registry.thread.record is outer
        finally:
            registry.settle(outer)
        assert inner.counts[counter] == 2
        assert outer.counts[counter] == 3     # the outer includes the inner
        assert counter.value == before + 3    # and the registry counts it once


class TestConcurrentStatementStats:
    def test_concurrent_inserts_report_exact_wal_records(self, registry):
        """Two sessions inserting at the same instant each see exactly the
        WAL records of *their* statement — the global-delta bug would give
        one of them (up to) both statements' records."""
        server = SqlServer(lock_timeout_s=1.0)
        conn_a = connect(server, registry, column_encryption=False)
        conn_b = connect(server, registry, column_encryption=False)
        conn_a.execute_ddl("CREATE TABLE W(id int PRIMARY KEY, v int)")

        # Baseline: what one single-row autocommit INSERT costs alone.
        baseline = conn_a.execute(
            "INSERT INTO W (id, v) VALUES (@i, @v)", {"i": 0, "v": 0}
        ).stats.wal_records
        assert baseline > 0

        barrier = threading.Barrier(2)
        results: dict[str, object] = {}

        def client(name: str, conn, row_id: int) -> None:
            barrier.wait()
            results[name] = conn.execute(
                "INSERT INTO W (id, v) VALUES (@i, @v)", {"i": row_id, "v": 1}
            )

        threads = [
            threading.Thread(target=client, args=("a", conn_a, 1)),
            threading.Thread(target=client, args=("b", conn_b, 2)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert results["a"].stats.wal_records == baseline
        assert results["b"].stats.wal_records == baseline

    def test_concurrent_enclave_queries_partition_ecalls_exactly(
        self, server, registry, attestation_policy, enclave_cmk, enclave_cek
    ):
        """Queued-gateway ecalls executed on the enclave worker thread are
        attributed to the submitting statement; two concurrent statements
        partition the registry delta with nothing lost or double-counted."""
        server.catalog.create_cmk(enclave_cmk)
        server.catalog.create_cek(enclave_cek)
        conn_a = connect(server, registry, attestation_policy=attestation_policy)
        conn_b = connect(server, registry, attestation_policy=attestation_policy)
        make_encrypted_table(conn_a)
        for i in range(6):
            conn_a.execute(
                "INSERT INTO T (id, value) VALUES (@id, @v)", {"id": i, "v": i * 10}
            )
        # Warm both connections (describe, attestation, CEK install).
        conn_a.execute(POINT_LOOKUP, {"v": 30})
        conn_b.execute(POINT_LOOKUP, {"v": 30})

        metrics = get_registry()
        before = metrics.value("enclave.ecalls")
        barrier = threading.Barrier(2)
        results: dict[str, object] = {}

        def client(name: str, conn) -> None:
            barrier.wait()
            results[name] = conn.execute(POINT_LOOKUP, {"v": 30})

        threads = [
            threading.Thread(target=client, args=("a", conn_a)),
            threading.Thread(target=client, args=("b", conn_b)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        after = metrics.value("enclave.ecalls")

        stats_a = results["a"].stats
        stats_b = results["b"].stats
        assert stats_a.ecalls > 0
        assert stats_b.ecalls > 0
        assert stats_a.ecalls + stats_b.ecalls == after - before

    def test_concurrent_statements_get_their_own_span_trees(self, registry):
        server = SqlServer(lock_timeout_s=1.0)
        conn_a = connect(server, registry, column_encryption=False)
        conn_b = connect(server, registry, column_encryption=False)
        conn_a.execute_ddl("CREATE TABLE S(id int PRIMARY KEY, v int)")
        for i in range(4):
            conn_a.execute(
                "INSERT INTO S (id, v) VALUES (@i, @v)", {"i": i, "v": i}
            )

        barrier = threading.Barrier(2)
        results: dict[str, object] = {}

        def client(name: str, conn, v: int) -> None:
            barrier.wait()
            with get_tracer().root(f"test.client_{name}"):   # ask for the tree
                results[name] = conn.execute(
                    "SELECT id FROM S WHERE v = @v", {"v": v}
                )

        threads = [
            threading.Thread(target=client, args=("a", conn_a, 1)),
            threading.Thread(target=client, args=("b", conn_b, 2)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        span_a = results["a"].stats.root_span
        span_b = results["b"].stats.root_span
        assert span_a is not None and span_b is not None
        assert span_a is not span_b
        assert span_a.attrs["session"] != span_b.attrs["session"]
        assert results["a"].rows == [(1,)]
        assert results["b"].rows == [(2,)]
        # A statement nobody asked to time carries no tree.
        plain = conn_a.execute("SELECT id FROM S WHERE v = @v", {"v": 1})
        assert plain.stats.root_span is None


# -- the books balance: sum of QueryStats == registry delta -------------------

PT_STATEMENTS = [
    ("SELECT id, v FROM P WHERE id = @id", lambda n: {"id": n % 6}),
    ("UPDATE P SET v = @v WHERE id = @id", lambda n: {"v": n, "id": n % 6}),
    ("INSERT INTO P (id, v) VALUES (@id, @v)", lambda n: {"id": 1000 + n, "v": n}),
]
RND_STATEMENTS = [
    (POINT_LOOKUP, lambda n: {"v": (n % 6) * 10}),
    ("SELECT id FROM T WHERE value > @lo AND value < @hi",
     lambda n: {"lo": (n % 3) * 10, "hi": 40 + (n % 3) * 10}),
    ("INSERT INTO T (id, value) VALUES (@id, @v)", lambda n: {"id": 1000 + n, "v": n}),
]
ALL_STATEMENTS = PT_STATEMENTS + RND_STATEMENTS


@pytest.fixture(scope="module", params=[CallMode.SYNCHRONOUS, CallMode.QUEUED],
                ids=["sync", "queued"])
def bookkeeping_system(request, enclave_binary, host_machine, registry,
                       enclave_cmk, enclave_cek):
    """A server with a plaintext table P and an RND table T behind the
    given gateway, and three warm AE connections (describe results, the
    attestation session and the CEKs cached: the measured statements make
    no call outside a statement)."""
    hgs = HostGuardianService()
    hgs.register_host(host_machine.boot_and_measure())
    policy = AttestationPolicy(trusted_author_ids=frozenset({enclave_binary.author_id}))
    server = SqlServer(
        enclave=Enclave(enclave_binary), host_machine=host_machine, hgs=hgs,
        enclave_call_mode=request.param, lock_timeout_s=5.0,
    )
    server.catalog.create_cmk(enclave_cmk)
    server.catalog.create_cek(enclave_cek)
    connections = [
        connect(server, registry, attestation_policy=policy) for __ in range(3)
    ]
    make_encrypted_table(connections[0])
    connections[0].execute_ddl("CREATE TABLE P(id int PRIMARY KEY, v int)")
    for i in range(6):
        connections[0].execute(
            "INSERT INTO T (id, value) VALUES (@id, @v)", {"id": i, "v": i * 10}
        )
        connections[0].execute("INSERT INTO P (id, v) VALUES (@id, @v)", {"id": i, "v": i})
    serial = itertools.count(1)
    for conn in connections:
        for text, params in ALL_STATEMENTS:
            conn.execute(text, params(next(serial)))
    yield connections, serial
    server.shutdown()


class TestTheBooksBalance:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(plan=st.lists(
        st.lists(st.integers(0, len(ALL_STATEMENTS) - 1), min_size=1, max_size=4),
        min_size=1, max_size=3,
    ))
    def test_sum_of_query_stats_equals_the_registry_delta(self, bookkeeping_system, plan):
        """N sessions x M statements, PT and RND, concurrently: for every
        one of the 19 server and 4 driver fields, the field-wise sum of all
        QueryStats is the registry's delta — nothing lost at a settle,
        nothing counted twice by the nesting or the worker hand-back — and
        the snapshot taken right after the last ``execute`` returns already
        holds every count (that is when ``bench/round.py`` reads it)."""
        connections, serial = bookkeeping_system
        metrics = get_registry()
        work = [
            [(ALL_STATEMENTS[i][0], ALL_STATEMENTS[i][1](next(serial))) for i in picks]
            for picks in plan
        ]
        collected: list[list] = [[] for __ in work]
        barrier = threading.Barrier(len(work))

        def client(conn, statements, out) -> None:
            barrier.wait()
            for text, params in statements:
                out.append(conn.execute(text, params).stats)

        threads = [
            threading.Thread(target=client, args=(conn, statements, out))
            for conn, statements, out in zip(connections, work, collected)
        ]
        before = metrics.snapshot()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        after = metrics.snapshot()

        stats = [s for out in collected for s in out]
        assert len(stats) == sum(len(statements) for statements in work)
        for attr, name in {**_SERVER_DELTA_FIELDS, **_DRIVER_DELTA_FIELDS}.items():
            total = sum(getattr(s, attr) for s in stats)
            assert total == pytest.approx(after.get(name, 0) - before.get(name, 0)), attr
        # Sanity: the enclave fields are not balancing at zero. The two RND
        # predicates evaluate in the enclave; the RND insert does not.
        ran_enclave = any(
            "WHERE value" in ALL_STATEMENTS[i][0] for picks in plan for i in picks
        )
        assert (sum(s.ecalls for s in stats) > 0) == ran_enclave
