"""Cross-thread trace-context propagation, end to end.

A statement runs on its session's thread; the QUEUED enclave gateway is
the one place its work hops to another. Two concurrent sessions drive
encrypted statements through that gateway, and every flight-recorder
event emitted on *either* thread — the client's, the enclave worker's —
must carry the identity of the statement that caused it. A context that
leaked across sessions, or was dropped at the hop, is the orphaned-span
bug this file pins; the tracer runs strict, so a dropped context raises
instead of silently rooting a fresh trace."""

from __future__ import annotations

import threading

import pytest

from repro.client.driver import connect
from repro.obs.flightrec import get_recorder
from repro.obs.leakage import get_leakage_accountant
from repro.obs.tracing import TraceOrphanError, Tracer, get_tracer
from tests.conftest import make_encrypted_table

POINT_LOOKUP = "SELECT id, value FROM T WHERE value = @v"

#: Events caused by statement execution — if one of these carries a
#: statement id, it must be the id of the statement that caused it.
STATEMENT_SCOPED = (
    "stmt.end", "enclave.ecall", "enclave.transition",
    "leak.det_equality", "leak.rnd_comparison", "leak.index_touch",
    "lock.wait", "lock.timeout", "span.end",
)


@pytest.fixture()
def recorder():
    rec = get_recorder()
    rec.clear()
    yield rec
    rec.clear()
    get_leakage_accountant().reset()


@pytest.fixture()
def strict_tracer(monkeypatch):
    """Armed and strict: every span site builds its span, and one opened
    on a worker that was handed no record raises."""
    monkeypatch.setattr(get_tracer(), "enabled", True)
    monkeypatch.setattr(get_tracer(), "strict", True)


def test_concurrent_sessions_partition_events_by_statement(
    recorder, strict_tracer, server, registry, attestation_policy, enclave_cmk, enclave_cek
):
    """Two sessions, two client threads, one queued enclave gateway:
    the recording must attribute every statement-scoped event to the
    statement that caused it, with zero cross-session bleed."""
    server.catalog.create_cmk(enclave_cmk)
    server.catalog.create_cek(enclave_cek)
    conn_a = connect(server, registry, attestation_policy=attestation_policy)
    conn_b = connect(server, registry, attestation_policy=attestation_policy)
    make_encrypted_table(conn_a)
    for i in range(6):
        conn_a.execute(
            "INSERT INTO T (id, value) VALUES (@id, @v)", {"id": i, "v": i * 10}
        )
    # Warm both connections (describe, attestation, CEK install) so the
    # recorded window contains only the two concurrent statements.
    conn_a.execute(POINT_LOOKUP, {"v": 30})
    conn_b.execute(POINT_LOOKUP, {"v": 30})

    recorder.clear()
    barrier = threading.Barrier(2)
    results: dict[str, object] = {}

    def client(name: str, conn, v: int) -> None:
        barrier.wait()
        results[name] = conn.execute(POINT_LOOKUP, {"v": v})

    threads = [
        threading.Thread(target=client, args=("a", conn_a, 30)),
        threading.Thread(target=client, args=("b", conn_b, 40)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert results["a"].rows and results["b"].rows
    stmt_a = results["a"].stats.statement_id
    stmt_b = results["b"].stats.statement_id
    assert stmt_a != stmt_b
    session_of = {
        stmt_a: conn_a.session.session_id,
        stmt_b: conn_b.session.session_id,
    }
    assert len(set(session_of.values())) == 2

    events = recorder.events()
    seen: dict[int, list] = {stmt_a: [], stmt_b: []}
    for event in events:
        if event.statement_id is None:
            continue
        # No bleed: only the two statements we ran may appear, and each
        # event's session id must be the session that owns its statement.
        assert event.statement_id in session_of, event
        assert event.session_id == session_of[event.statement_id], event
        assert event.kind in STATEMENT_SCOPED, event
        seen[event.statement_id].append(event)

    for stmt_id, stmt_events in seen.items():
        kinds = {e.kind for e in stmt_events}
        # The encrypted point lookup crosses the enclave boundary, so the
        # recording must show the boundary under this statement's trace.
        assert "stmt.end" in kinds
        assert "enclave.ecall" in kinds and "span.end" in kinds
        # Cross-thread propagation: the statement's events span more than
        # one thread (the client's thread submits, an enclave worker evaluates),
        # and every one of them still carries the statement id.
        threads_used = {e.thread for e in stmt_events}
        assert len(threads_used) >= 2, (stmt_id, threads_used)
        assert any(t.startswith("enclave-worker") for t in threads_used)


def test_strict_mode_rejects_spans_on_unpropagated_workers():
    """An adopted worker whose submitter failed to capture its trace is
    an orphan factory; strict mode turns that silent mis-parenting into
    an error."""
    tracer = Tracer()
    tracer.strict = True
    empty = tracer.capture()          # no active trace: empty capture
    failures: list[Exception] = []

    def worker():
        with tracer.adopt(empty):
            try:
                with tracer.span("orphan.work"):
                    pass
            except TraceOrphanError as exc:
                failures.append(exc)

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join()
    assert len(failures) == 1
