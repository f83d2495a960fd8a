"""What an unlocked reader may see of a concurrent UPDATE.

Reads take no locks, so a point read can run in the middle of another
session's UPDATE. An UPDATE that moves no key touches no index, hence the
reader always finds the row: the lost row of the TPC-C stress run (a
primary-key read of a STOCK row returning nothing while its S_QUANTITY
was being updated) was the window between deleting and re-inserting an
index entry whose key had not changed.

The interleaving is deterministic: a fault action armed at
``engine.index_insert`` — which fires once per UPDATE, after the old
entries of the moved indexes are out and before the new ones are in —
issues the read from a second session on the writer's own thread.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.client.driver import connect
from repro.faults import Always, get_fault_registry
from repro.sqlengine.server import SqlServer


class ReadFromOtherSession:
    """Fault action: run queries on another connection, keep what they saw."""

    def __init__(self, conn, *queries: tuple[str, dict]):
        self.conn = conn
        self.queries = queries
        self.seen: list[list[list[tuple]]] = []

    def trigger(self, site: str, ctx: dict) -> None:
        self.seen.append(
            [self.conn.execute(text, params).rows for text, params in self.queries]
        )


@pytest.fixture()
def sessions(registry):
    server = SqlServer(lock_timeout_s=0.3)
    writer = connect(server, registry, column_encryption=False)
    reader = connect(server, registry, column_encryption=False)
    writer.execute_ddl(
        "CREATE TABLE stock (s_id int PRIMARY KEY, s_qty int, s_bin int)"
    )
    writer.execute_ddl("CREATE INDEX stock_bin ON stock (s_bin)")
    for s_id in range(1, 41):
        writer.execute(
            "INSERT INTO stock (s_id, s_qty, s_bin) VALUES (@i, @q, @b)",
            {"i": s_id, "q": 50, "b": 100 + s_id},
        )
    return server, writer, reader


@pytest.fixture()
def armed():
    """Arm one action at ``engine.index_insert`` for the duration of a test."""
    faults = get_fault_registry()
    armings = []

    def arm(action):
        armings.append(faults.arm("engine.index_insert", Always(), action))
        return action

    yield arm
    for arming in armings:
        faults.disarm(arming)


BY_PK = ("SELECT s_id, s_qty FROM stock WHERE s_id = @i", {"i": 7})


class TestReaderDuringUpdate:
    def test_non_key_update_never_hides_the_row(self, sessions, armed):
        server, writer, reader = sessions
        probe = armed(ReadFromOtherSession(reader, BY_PK))
        writer.execute("UPDATE stock SET s_qty = @q WHERE s_id = @i", {"q": 49, "i": 7})
        # One UPDATE, one firing — and the reader found the row.
        assert len(probe.seen) == 1
        assert [row[0] for row in probe.seen[0][0]] == [7]
        assert server.engine.verify_index_consistency() == []

    def test_rollback_of_a_non_key_update_never_hides_the_row(self, sessions, armed):
        server, writer, reader = sessions
        writer.begin()
        writer.execute("UPDATE stock SET s_qty = @q WHERE s_id = @i", {"q": 49, "i": 7})
        probe = armed(ReadFromOtherSession(reader, BY_PK))
        writer.rollback()
        assert len(probe.seen) == 1  # the undo of that one UPDATE
        assert [row[0] for row in probe.seen[0][0]] == [7]
        assert reader.execute(*BY_PK).rows == [(7, 50)]
        assert server.engine.verify_index_consistency() == []

    def test_key_moving_update_shows_the_row_at_most_once(self, sessions, armed):
        """What remains: while a key moves, a reader through *that* index
        may miss the row under both keys — but never sees it twice, never
        fails, and a reader through an index whose key stayed sees it."""
        server, writer, reader = sessions
        by_bin = "SELECT s_id FROM stock WHERE s_bin = @b"
        probe = armed(
            ReadFromOtherSession(
                reader, (by_bin, {"b": 107}), (by_bin, {"b": 907}), BY_PK
            )
        )
        writer.execute("UPDATE stock SET s_bin = @b WHERE s_id = @i", {"b": 907, "i": 7})
        (old_key, new_key, by_pk), = probe.seen
        assert len(old_key) + len(new_key) <= 1
        assert [row[0] for row in by_pk] == [7]
        assert reader.execute(by_bin, {"b": 107}).rows == []
        assert reader.execute(by_bin, {"b": 907}).rows == [(7,)]
        assert server.engine.verify_index_consistency() == []

    def test_primary_key_moving_update_shows_the_row_at_most_once(self, sessions, armed):
        server, writer, reader = sessions
        by_pk = "SELECT s_id FROM stock WHERE s_id = @i"
        probe = armed(
            ReadFromOtherSession(reader, (by_pk, {"i": 7}), (by_pk, {"i": 700}))
        )
        writer.execute("UPDATE stock SET s_id = @n WHERE s_id = @i", {"n": 700, "i": 7})
        (old_key, new_key), = probe.seen
        assert len(old_key) + len(new_key) <= 1
        assert reader.execute(by_pk, {"i": 700}).rows == [(700,)]
        assert server.engine.verify_index_consistency() == []


def test_threaded_reader_always_finds_a_row_under_non_key_updates(sessions):
    """The stress run's shape, bounded: one session updates a row's
    quantity in a loop, another point-reads it; every read returns it."""
    server, writer, reader = sessions
    done = threading.Event()
    failures: list[BaseException] = []

    def write():
        try:
            for n in range(400):
                writer.execute(
                    "UPDATE stock SET s_qty = @q WHERE s_id = @i", {"q": n, "i": 7}
                )
        except BaseException as exc:  # reported by the assertion below
            failures.append(exc)
        finally:
            done.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    thread = threading.Thread(target=write)
    try:
        thread.start()
        reads = empty = 0
        while not done.is_set():
            rows = reader.execute(*BY_PK).rows
            reads += 1
            empty += not rows
        thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not thread.is_alive() and not failures
    assert reads > 0 and empty == 0, f"{empty} of {reads} reads lost the row"
