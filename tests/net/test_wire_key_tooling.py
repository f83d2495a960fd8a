"""The key tooling over the wire: a :class:`RemoteServer` against a :class:`WireServer`.

A remote server has no catalog. Everything the driver and the rotation
tools need to know about a DDL — which keys go to the enclave, and the
attestation on first use — comes back in that DDL's describe. So every
DDL costs one ``describe`` and at most one ``forward_package``, and
nothing here ever sends ``attest`` or ``cek_fetch``. The AEv1 client
tool sends no ``forward_package`` either: the enclave has no part in it.
"""

from __future__ import annotations

import pytest

from repro.client.driver import connect
from repro.crypto.aead import EncryptionScheme
from repro.net.remote import RemoteServer
from repro.net.wireserver import WireServer
from repro.sqlengine.cells import Ciphertext
from repro.tools.rotation import (
    client_side_initial_encryption,
    resume_rotation,
    rotate_cek_online,
)
from tests.conftest import ALGO

ROWS = 12


def encrypted_with(cek: str) -> str:
    return (f"ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = {cek}, "
            f"ENCRYPTION_TYPE = Randomized, ALGORITHM = '{ALGO}')")


@pytest.fixture()
def wired(rotation_stack_factory, monkeypatch):
    """``(stack, remote, sent)``: ``sent`` names every control-plane message
    the remote server sends, in order."""
    stack = rotation_stack_factory()
    with WireServer(stack.server) as wire:
        remote = RemoteServer(wire.host, wire.port)
        sent: list[str] = []
        request = remote._request

        def recorded(message):
            sent.append(type(message).__name__)
            return request(message)

        monkeypatch.setattr(remote, "_request", recorded)
        try:
            yield stack, remote, sent
        finally:
            remote.close()
            stack.server.shutdown()


def ddl(conn, sent: list[str], text: str, authorize: bool = False) -> list[str]:
    """Run one DDL; the control-plane messages it sent."""
    mark = len(sent)
    conn.execute_ddl(text, authorize_enclave=authorize)
    return sent[mark:]


def test_key_tooling_runs_over_the_wire(wired):
    stack, remote, sent = wired
    assert not hasattr(remote, "catalog")
    conn = connect(remote, stack.registry, attestation_policy=stack.policy)
    assert ddl(conn, sent, "CREATE TABLE T (id int PRIMARY KEY, "
               f"value int {encrypted_with('RotOldCEK')}, tag varchar(16))") == ["Describe"]
    for i in range(ROWS):
        conn.execute("INSERT INTO T (id, value, tag) VALUES (@id, @v, @t)",
                     {"id": i, "v": i * 10, "t": f"t{i}"})

    # A range index over an RND column: the describe names its key and
    # attests; one package ships the key.
    assert ddl(conn, sent, "CREATE INDEX IX_VALUE ON T (value)") == [
        "Describe", "ForwardPackage"]
    assert sorted(conn.execute("SELECT id FROM T WHERE value > @v", {"v": 95}).rows) == [
        (10,), (11,)]

    # In place: encrypt, rotate and decrypt a column, each authorized.
    for type_change in (encrypted_with("RotThirdCEK"), encrypted_with("RotNewCEK"), ""):
        text = f"ALTER TABLE T ALTER COLUMN tag varchar(16) {type_change}".strip()
        assert ddl(conn, sent, text, authorize=True) == ["Describe", "ForwardPackage"]
        rows = conn.execute("SELECT id, tag FROM T").rows
        assert sorted(rows) == [(i, f"t{i}") for i in range(ROWS)]
    tags = [row[2] for __, row in stack.server.engine.scan("T")]
    assert not any(isinstance(tag, Ciphertext) for tag in tags)

    # Online rotation to completion: one describe, one package, then admin verbs.
    mark = len(sent)
    rotate_cek_online(conn, "T", "value", "RotNewCEK", batch_size=5)
    assert sent[mark:mark + 3] == ["Describe", "ForwardPackage", "AdminRotateStart"]
    assert set(sent[mark + 3:]) == {"AdminRotateStep"}
    # The in-place encrypt and rotate above bumped their targets once each.
    assert remote.cek_versions() == {"RotNewCEK": 3, "RotThirdCEK": 2}
    assert sorted(conn.execute("SELECT id, value FROM T").rows) == [
        (i, i * 10) for i in range(ROWS)]

    # A crash mid-rotation; a new connection resumes it without naming the old key.
    rid = rotate_cek_online(conn, "T", "value", "RotThirdCEK", batch_size=5, run=False)
    remote.rotate_step(rid)
    remote.crash()
    assert rid in remote.recover().resumed_rotations
    fresh = connect(remote, stack.registry, attestation_policy=stack.policy)
    resume_rotation(fresh, rid, "T", "value", "RotThirdCEK")
    assert not any(state.active for state in remote.rotation_states())
    assert remote.cek_versions() == {"RotNewCEK": 3, "RotThirdCEK": 3}
    assert sorted(fresh.execute("SELECT id, value FROM T").rows) == [
        (i, i * 10) for i in range(ROWS)]

    assert "Attest" not in sent and "CekFetch" not in sent


def plaintext_table(conn) -> None:
    conn.execute_ddl("CREATE TABLE L (k int PRIMARY KEY, s varchar(16))")
    for k in range(ROWS):
        conn.execute("INSERT INTO L (k, s) VALUES (@k, @s)", {"k": k, "s": f"s{k}"})


@pytest.fixture()
def plain_key(wired, plain_cmk, plain_cek) -> None:
    """The AEv1 tool's key: one whose CMK forbids enclave computations."""
    stack = wired[0]
    stack.server.catalog.create_cmk(plain_cmk)
    stack.server.catalog.create_cek(plain_cek)


def encrypt_l(conn) -> int:
    return client_side_initial_encryption(
        conn, "L", "k", "s", "PlainCEK", EncryptionScheme.DETERMINISTIC
    )


def assert_encrypted_and_finished(stack, remote, conn) -> None:
    assert all(isinstance(row[1], Ciphertext) for __, row in stack.server.engine.scan("L"))
    assert not any(state.active for state in remote.rotation_states())
    assert remote.cek_versions() == {"PlainCEK": 2}
    assert conn.execute("SELECT k FROM L WHERE s = @s", {"s": "s7"}).rows == [(7,)]
    assert remote.audit() == []


def test_client_side_initial_encryption_runs_over_the_wire(wired, plain_key):
    """The AEv1 tool: the server's job flips the column, the driver encrypts
    every cell, the job's sweep ends it. The enclave takes no part."""
    stack, remote, sent = wired
    conn = connect(remote, stack.registry, attestation_policy=stack.policy)
    plaintext_table(conn)
    encrypts, mark = stack.server.enclave.counters.cell_encrypts, len(sent)
    assert encrypt_l(conn) == ROWS
    assert "ForwardPackage" not in sent[mark:] and "Attest" not in sent[mark:]
    assert stack.server.enclave.counters.cell_encrypts == encrypts
    assert_encrypted_and_finished(stack, remote, conn)


def test_a_failed_write_back_is_adopted_and_finished(wired, plain_key, monkeypatch):
    stack, remote, sent = wired
    conn = connect(remote, stack.registry, attestation_policy=stack.policy)
    plaintext_table(conn)
    execute, updates = conn.execute, []

    def failing(text, params=None, **options):
        if text.startswith("UPDATE"):
            updates.append(text)
            if len(updates) > ROWS // 2:
                raise RuntimeError("client failed mid write-back")
        return execute(text, params, **options)

    monkeypatch.setattr(conn, "execute", failing)
    with pytest.raises(RuntimeError, match="mid write-back"):
        encrypt_l(conn)
    monkeypatch.setattr(conn, "execute", execute)
    [state] = remote.rotation_states()
    assert state.active and state.kind == "encrypt"
    assert not any(isinstance(row[1], Ciphertext) for __, row in stack.server.engine.scan("L"))

    assert encrypt_l(conn) == ROWS
    assert [s.rotation_id for s in remote.rotation_states()] == [state.rotation_id]
    assert_encrypted_and_finished(stack, remote, conn)
