"""The driver's Diffie–Hellman pair before a connection has attested.

A connection with an attestation policy offers a DH public value with
every describe until one of them comes back with an attestation. The
public value is one 2048-bit modular exponentiation, so the connection
keeps one pending pair and offers it again, instead of making a fresh
pair per describe. An attestation consumes the pair; a describe or an
attestation that raises drops it, so a retried attestation still
negotiates with a pair no enclave has seen.
"""

from __future__ import annotations

import pytest

import repro.crypto.dh as dh
from repro.attestation.hgs import AttestationPolicy
from repro.client.driver import connect
from repro.errors import AttestationError, DriverError, TransientFault
from repro.faults import get_fault_registry
from repro.faults.actions import RaiseTransient
from repro.faults.schedules import Always, OnNth
from tests.conftest import make_encrypted_table

PLAIN_QUERIES = [f"SELECT v FROM P WHERE id = @id AND v > {n}" for n in range(5)]


@pytest.fixture()
def powers(monkeypatch):
    """Every 2048-bit modular exponentiation ``repro.crypto.dh`` makes."""
    calls = []

    def counted(base, exponent, modulus=None):
        if modulus == dh.MODP_2048_PRIME:
            calls.append(base)
        return pow(base, exponent, modulus)

    monkeypatch.setattr(dh, "pow", counted, raising=False)
    return calls


@pytest.fixture()
def offered(server, monkeypatch):
    """The DH public value each describe offered the server, in order."""
    sent = []
    describe = server.describe_parameter_encryption

    def spy(query_text, client_dh_public=None):
        sent.append(client_dh_public)
        return describe(query_text, client_dh_public)

    monkeypatch.setattr(server, "describe_parameter_encryption", spy)
    return sent


@pytest.fixture()
def faults():
    registry = get_fault_registry()
    registry.disarm_all()
    yield registry
    registry.disarm_all()


@pytest.fixture()
def plain_table(ae_connection):
    ae_connection.execute_ddl("CREATE TABLE P (id int PRIMARY KEY, v int)")
    ae_connection.execute("INSERT INTO P (id, v) VALUES (@id, @v)", {"id": 1, "v": 9})
    return ae_connection


def test_describes_without_attestation_compute_one_public_value(powers, plain_table, offered):
    pending = plain_table._pending_dh
    for query in PLAIN_QUERIES:
        assert plain_table.execute(query, {"id": 1}).rows == [(9,)]
    assert len(offered) == len(PLAIN_QUERIES)
    assert set(offered) == {pending.public_key}
    assert powers == [dh.MODP_2048_GENERATOR]  # once, at the set-up's first describe
    assert plain_table._attestation is None


def test_attestation_consumes_the_pending_pair(plain_table, offered):
    pending = plain_table._pending_dh
    plain_table.execute(PLAIN_QUERIES[0], {"id": 1})
    make_encrypted_table(plain_table)
    plain_table.execute("INSERT INTO T (id, value) VALUES (@id, @v)", {"id": 3, "v": 30})
    assert plain_table.execute("SELECT id FROM T WHERE value = @v", {"v": 30}).rows == [(3,)]
    assert plain_table._attestation is not None
    assert plain_table._pending_dh is None
    # Offered until the enclave took it, never again after.
    assert pending.public_key in offered
    attested_at = max(i for i, value in enumerate(offered) if value is not None)
    assert set(offered[: attested_at + 1]) == {pending.public_key}
    assert all(value is None for value in offered[attested_at + 1 :])


def test_a_failed_describe_drops_the_pair(plain_table, offered, faults):
    dropped = plain_table._pending_dh
    faults.arm("driver.describe_parameter_encryption", OnNth(1), RaiseTransient())
    plain_table.execute(PLAIN_QUERIES[1], {"id": 1})  # retried after the fault
    assert offered == [plain_table._pending_dh.public_key]
    assert plain_table._pending_dh is not dropped

    faults.arm("driver.describe_parameter_encryption", Always(), RaiseTransient())
    with pytest.raises(TransientFault):
        plain_table.execute(PLAIN_QUERIES[2], {"id": 1})
    assert plain_table._pending_dh is None


def test_a_failed_attestation_leaves_no_pair(plain_table, server, monkeypatch):
    assert plain_table._pending_dh is not None

    def refuse(client_dh_public):
        raise DriverError("attestation service unavailable")

    monkeypatch.setattr(server, "attest", refuse)
    with pytest.raises(DriverError):
        # Its describe names TestCEK for the enclave, and attests.
        plain_table.authorize_enclave_query(
            "ALTER TABLE P ALTER COLUMN v ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = TestCEK) ONLINE"
        )
    assert plain_table._pending_dh is None


def test_an_attesting_describe_that_fails_verification_leaves_no_pair(
    server, registry, enclave_cmk, enclave_cek, offered
):
    server.catalog.create_cmk(enclave_cmk)
    server.catalog.create_cek(enclave_cek)
    untrusting = AttestationPolicy(trusted_author_ids=frozenset())
    conn = connect(server, registry, attestation_policy=untrusting)
    make_encrypted_table(conn)
    with pytest.raises(AttestationError, match="trusted author"):
        conn.execute("SELECT id FROM T WHERE value = @v", {"v": 1})
    assert offered and None not in offered
    assert conn._pending_dh is None and conn._attestation is None
