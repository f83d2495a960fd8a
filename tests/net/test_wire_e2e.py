"""End-to-end wire tests: the unmodified AE driver over real sockets.

The contract under test: :class:`RemoteServer` is indistinguishable from
the in-process server object for the driver — attestation, CEK fetch,
enclave key forwarding, client-side encryption/decryption, transaction
state mirroring, typed errors (including the ``StaleRestoreError``
quarantine refusal), and session teardown on connection loss. Plus the
transport's registered fault sites: a frame dropped at ``net.send_frame``
or ``net.recv_frame`` surfaces as ``ConnectionResetError``, which the
driver's retry classifier treats as transient for idempotent control ops.
"""

from __future__ import annotations

import pytest

from repro.client.driver import connect
from repro.errors import ConstraintError, RemoteError, SqlError, StaleRestoreError
from repro.faults.actions import DropMessage, RaiseTransient
from repro.faults.schedules import Always, OnNth
from repro.net.frames import PROTOCOL_VERSION
from repro.net.remote import RemoteServer
from repro.net.router import Router
from repro.net.wireserver import WireServer
from repro.sqlengine.server import SqlServer
from tests.conftest import ALGO, make_encrypted_table


@pytest.fixture()
def wire(server, enclave_cmk, enclave_cek):
    """The RND test server behind a real TCP socket."""
    server.catalog.create_cmk(enclave_cmk)
    server.catalog.create_cek(enclave_cek)
    with WireServer(server, name="wire-test") as ws:
        yield ws


@pytest.fixture()
def remote(wire):
    remote = RemoteServer(wire.host, wire.port, timeout_s=10.0)
    yield remote
    remote.close()


@pytest.fixture()
def plain_wire(plain_server):
    with WireServer(plain_server, name="plain-test") as ws:
        yield ws


def test_handshake_carries_hgs_key(remote, hgs):
    assert remote.hello.server_name == "wire-test"
    assert remote.hgs is not None
    assert remote.hgs.signing_public_key == hgs.signing_public_key


def test_ae_roundtrip_over_socket(remote, registry, attestation_policy):
    """Full AE flow: encrypted insert, DET-free RND predicate via enclave."""
    conn = connect(remote, registry, attestation_policy=attestation_policy)
    make_encrypted_table(conn)
    for i in range(5):
        conn.execute("INSERT INTO T (id, value) VALUES (@id, @v)", {"id": i, "v": i * 10})
    rows = conn.execute("SELECT id, value FROM T WHERE value > @v", {"v": 15}).rows
    assert sorted(row[1] for row in rows) == [20, 30, 40]
    # Ciphertext at rest on the server; plaintext only client-side.
    raw = remote._request  # control channel still healthy after enclave ops
    conn.close()


def test_transactions_mirror_state_over_wire(plain_wire):
    remote = RemoteServer(plain_wire.host, plain_wire.port)
    session = remote.connect()
    session.execute("CREATE TABLE A (K INT PRIMARY KEY, V INT)", {})
    session.execute("BEGIN TRANSACTION", {})
    assert session.in_transaction
    session.execute("INSERT INTO A (K, V) VALUES (@k, @v)", {"k": 1, "v": 1})
    session.execute("ROLLBACK", {})
    assert not session.in_transaction
    assert session.execute("SELECT K FROM A", {}).rows == []
    remote.close()


def test_typed_errors_cross_the_wire(plain_wire):
    remote = RemoteServer(plain_wire.host, plain_wire.port)
    session = remote.connect()
    session.execute("CREATE TABLE B (K INT PRIMARY KEY)", {})
    session.execute("INSERT INTO B (K) VALUES (@k)", {"k": 1})
    with pytest.raises(ConstraintError):
        session.execute("INSERT INTO B (K) VALUES (@k)", {"k": 1})
    remote.close()


def test_quarantine_refusal_crosses_the_wire(plain_wire, plain_server, monkeypatch):
    """A quarantined server refuses execution with StaleRestoreError —
    remotely the client must see the *same* typed refusal."""
    remote = RemoteServer(plain_wire.host, plain_wire.port)
    session = remote.connect()
    session.execute("CREATE TABLE Q (K INT PRIMARY KEY)", {})

    def refuse(*args, **kwargs):
        raise StaleRestoreError("restored database is stale: anchor mismatch")

    monkeypatch.setattr(plain_server, "connect", refuse)
    with pytest.raises(StaleRestoreError, match="stale"):
        remote.connect()
    # The pre-quarantine session object also refuses at the engine seam.
    remote.close()


def test_shut_down_server_refuses_with_the_same_typed_error_on_both_sides(
    plain_wire, plain_server
):
    """After ``SqlServer.shutdown()`` every statement is refused with a
    plain ``SqlError``, in-process and through the wire alike — not an
    untyped error that degrades to ``RemoteError`` on the way."""
    remote = RemoteServer(plain_wire.host, plain_wire.port)
    sessions = {"in-process": plain_server.connect(), "wire": remote.connect()}
    sessions["wire"].execute("CREATE TABLE S (K INT PRIMARY KEY)", {})
    plain_server.shutdown()
    for where, session in sessions.items():
        with pytest.raises(SqlError, match="server is shut down") as excinfo:
            session.execute("SELECT K FROM S", {})
        assert type(excinfo.value) is SqlError, where
    remote.close()


def test_unknown_server_exception_degrades_to_remote_error(plain_wire, plain_server, monkeypatch):
    class ExoticFailure(Exception):
        pass

    def explode(*args, **kwargs):
        raise ExoticFailure("no wire mapping for this")

    monkeypatch.setattr(plain_server, "connect", explode)
    remote = RemoteServer(plain_wire.host, plain_wire.port)
    with pytest.raises(RemoteError) as excinfo:
        # A wire server opens the engine session at connect; a router
        # opens its shard sessions lazily, at the first statement.
        remote.connect().execute("SELECT 1", {})
    assert excinfo.value.error_type == "ExoticFailure"
    assert "no wire mapping for this" in str(excinfo.value)
    remote.close()


def test_connection_loss_closes_server_sessions(plain_wire, plain_server):
    remote = RemoteServer(plain_wire.host, plain_wire.port)
    session = remote.connect()
    session.execute("CREATE TABLE C (K INT PRIMARY KEY)", {})
    session.execute("BEGIN TRANSACTION", {})
    session.execute("INSERT INTO C (K) VALUES (@k)", {"k": 1}, )
    # Drop the socket without SessionClose: the server must abort the txn
    # and release the session slot (connection-loss contract).
    session._channel.close()
    remote2 = RemoteServer(plain_wire.host, plain_wire.port)
    session2 = remote2.connect()
    import time

    deadline = time.monotonic() + 2.0
    while time.monotonic() < deadline:
        if session2.execute("SELECT K FROM C", {}).rows == []:
            break
        time.sleep(0.02)
    assert session2.execute("SELECT K FROM C", {}).rows == []
    remote.close()
    remote2.close()


def test_handshake_and_shutdown_contract(plain_wire):
    """Hello → HelloReply, then AdminShutdown stops the whole endpoint."""
    remote = RemoteServer(plain_wire.host, plain_wire.port)
    assert remote.hello.protocol_version == PROTOCOL_VERSION
    assert remote.hello.server_name == plain_wire.name
    assert remote.hello.shard_count == 1
    assert remote.hello.hgs_public is None
    assert remote.ping()
    assert not plain_wire.wait_stopped(timeout_s=0)
    remote.shutdown()
    assert plain_wire.wait_stopped(timeout_s=5.0)
    with pytest.raises(OSError):
        RemoteServer(plain_wire.host, plain_wire.port, timeout_s=1.0)


class TestSameContractBehindRouter:
    """The frame-server loop has two users. The tests above run it under a
    :class:`WireServer`; these re-run the loop's own contract — typed and
    untyped error marshalling, connection-loss clean-up, handshake and
    shutdown — under a :class:`Router` in front of that wire server."""

    @pytest.fixture()
    def plain_wire(self, plain_server):
        with WireServer(plain_server, name="plain-shard") as shard:
            with Router([(shard.host, shard.port)], name="plain-test") as router:
                yield router

    test_typed_errors_cross_the_wire = staticmethod(test_typed_errors_cross_the_wire)
    test_unknown_server_exception_degrades_to_remote_error = staticmethod(
        test_unknown_server_exception_degrades_to_remote_error
    )
    test_connection_loss_closes_server_sessions = staticmethod(
        test_connection_loss_closes_server_sessions
    )
    test_handshake_and_shutdown_contract = staticmethod(
        test_handshake_and_shutdown_contract
    )


# ----------------------------------------------------------- fault injection


def test_send_frame_fault_surfaces_as_connection_reset(plain_wire, clean_fault_registry):
    """An armed "net.send_frame" drop makes the client see a reset —
    the transient class the driver's backoff classifier retries."""
    remote = RemoteServer(plain_wire.host, plain_wire.port)
    clean_fault_registry.arm("net.send_frame", OnNth(1), DropMessage())
    with pytest.raises(ConnectionResetError):
        remote.ping()
    remote.close()


def test_recv_frame_fault_injects_transient(plain_wire, clean_fault_registry):
    remote = RemoteServer(plain_wire.host, plain_wire.port)
    clean_fault_registry.arm(
        "net.recv_frame", Always(), RaiseTransient("injected recv failure")
    )
    from repro.errors import TransientFault

    # The site is process-global, so the server's recv loop can absorb
    # hits too — but with Always armed, the client's own recv must fire.
    with pytest.raises((TransientFault, ConnectionResetError)):
        remote.ping()
    clean_fault_registry.disarm_all()
    retry = RemoteServer(plain_wire.host, plain_wire.port)
    assert retry.ping()
    retry.close()
    remote.close()


def test_driver_retries_dropped_control_frame(
    remote, registry, attestation_policy, clean_fault_registry
):
    """The full stack heals itself: a dropped control-plane frame during
    describe surfaces as ConnectionResetError, the stub reopens its
    channel, the driver's classifier calls it transient, and the retried
    describe succeeds — the query never sees the fault."""
    conn = connect(remote, registry, attestation_policy=attestation_policy)
    make_encrypted_table(conn)
    conn.execute("INSERT INTO T (id, value) VALUES (@id, @v)", {"id": 1, "v": 10})
    clean_fault_registry.arm("net.send_frame", OnNth(1), DropMessage())
    rows = conn.execute("SELECT id FROM T WHERE value > @v", {"v": 5}).rows
    assert [row[0] for row in rows] == [1]
    assert conn.stats.retries >= 1
    conn.close()


def test_idempotent_control_plane_survives_retry(plain_wire, clean_fault_registry):
    """Manual retry of an idempotent control op after a dropped frame: the
    second attempt succeeds on a fresh connection, no state corrupted."""
    remote = RemoteServer(plain_wire.host, plain_wire.port)
    clean_fault_registry.arm("net.send_frame", OnNth(2), DropMessage())
    try:
        remote.ping()
        remote.ping()
    except ConnectionResetError:
        pass
    retry = RemoteServer(plain_wire.host, plain_wire.port)
    assert retry.ping()
    retry.close()
    remote.close()
