"""StatementScheduler and SqlServer session-limit behaviour."""

from __future__ import annotations

import threading

import pytest

from repro.client.driver import connect
from repro.errors import ServerBusyError, SqlError
from repro.obs.flightrec import get_recorder
from repro.sqlengine.scheduler import StatementScheduler
from repro.sqlengine.server import SqlServer


class TestStatementScheduler:
    def test_submit_returns_result(self):
        assert StatementScheduler().submit(lambda: 41 + 1) == 42

    def test_passthrough_mode_runs_on_calling_thread(self):
        """The gate is a pass-through: the closure runs where submit was called."""
        scheduler = StatementScheduler()
        ran_on: list[threading.Thread] = []
        scheduler.submit(lambda: ran_on.append(threading.current_thread()))
        assert ran_on == [threading.current_thread()]

    def test_statement_runs_on_the_thread_that_brought_it(self, registry):
        """Through the whole server: a client thread's statement runs, and
        its event is stamped, on that client thread."""
        server = SqlServer()
        conn = connect(server, registry, column_encryption=False)
        conn.execute_ddl("CREATE TABLE R(id int PRIMARY KEY)")
        recorder = get_recorder()
        recorder.clear()
        client = threading.Thread(
            target=conn.execute,
            args=("INSERT INTO R (id) VALUES (@i)", {"i": 1}),
            name="client-under-test",
        )
        client.start()
        client.join()
        events = [e for e in recorder.events() if e.statement_id is not None]
        assert "stmt.end" in {e.kind for e in events}
        assert {e.thread for e in events} == {"client-under-test"}

    def test_creates_no_thread(self, registry, threads_started):
        """Connect, execute from several client threads, shut down: the only
        threads an enclave-less server ever runs on are its clients'."""
        server = SqlServer()
        conn = connect(server, registry, column_encryption=False)
        conn.execute_ddl("CREATE TABLE N(id int PRIMARY KEY)")
        conns = [connect(server, registry, column_encryption=False) for __ in range(4)]
        clients = [
            threading.Thread(
                target=c.execute,
                args=("INSERT INTO N (id) VALUES (@i)", {"i": i}),
                name=f"client-{i}",
            )
            for i, c in enumerate(conns)
        ]
        for client in clients:
            client.start()
        for client in clients:
            client.join()
        assert len(conn.execute("SELECT id FROM N", {}).rows) == 4
        server.shutdown()
        assert threads_started == [f"client-{i}" for i in range(4)]

    def test_errors_propagate_to_submitter(self):
        def boom():
            raise ValueError("expected")

        with pytest.raises(ValueError, match="expected"):
            StatementScheduler().submit(boom)

    def test_shutdown_rejects_new_work(self):
        scheduler = StatementScheduler()
        scheduler.shutdown()
        with pytest.raises(SqlError, match="server is shut down"):
            scheduler.submit(lambda: None)


class TestSessionLimits:
    def test_max_sessions_enforced(self, registry):
        server = SqlServer(max_sessions=2)
        connect(server, registry, column_encryption=False)
        connect(server, registry, column_encryption=False)
        with pytest.raises(ServerBusyError):
            connect(server, registry, column_encryption=False)

    def test_close_frees_a_session_slot(self, registry):
        server = SqlServer(max_sessions=1)
        conn = connect(server, registry, column_encryption=False)
        conn.close()
        connect(server, registry, column_encryption=False)  # slot reusable

    def test_closed_session_rejects_statements(self, registry):
        server = SqlServer()
        conn = connect(server, registry, column_encryption=False)
        conn.execute_ddl("CREATE TABLE C(id int PRIMARY KEY)")
        conn.close()
        with pytest.raises(SqlError):
            conn.execute("SELECT id FROM C", {})

    def test_close_aborts_open_transaction(self, registry):
        server = SqlServer()
        conn_a = connect(server, registry, column_encryption=False)
        conn_a.execute_ddl("CREATE TABLE D(id int PRIMARY KEY)")
        conn_a.begin()
        conn_a.execute("INSERT INTO D (id) VALUES (@i)", {"i": 1})
        conn_a.close()                        # implicit rollback
        conn_b = connect(server, registry, column_encryption=False)
        assert conn_b.execute("SELECT id FROM D", {}).rows == []

    def test_connection_context_manager_closes(self, registry):
        server = SqlServer(max_sessions=1)
        with connect(server, registry, column_encryption=False) as conn:
            conn.execute_ddl("CREATE TABLE E(id int PRIMARY KEY)")
        connect(server, registry, column_encryption=False)

    def test_sessions_gauge_tracks_open_sessions(self, registry):
        from repro.obs.metrics import get_registry

        # The gauge holds the absolute open-session count of the server
        # that last touched it; with this fresh server acting alone it
        # reads 1 while the connection is open and 0 after close.
        server = SqlServer()
        conn = connect(server, registry, column_encryption=False)
        assert get_registry().value("server.sessions_open") == 1
        conn.close()
        assert get_registry().value("server.sessions_open") == 0
