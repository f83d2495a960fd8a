"""The AE-aware driver: transparency, security controls, caches."""

import pytest

from repro.client.driver import connect
from repro.crypto.aead import CellCipher
from repro.errors import DriverError, IntegrityError, SecurityViolation
from repro.sqlengine.cells import Ciphertext
from repro.sqlengine.storage.record import serialize_row
from tests.conftest import ALGO, make_encrypted_table


class TestTransparency:
    def test_plaintext_in_plaintext_out(self, encrypted_table):
        result = encrypted_table.execute("SELECT * FROM T WHERE value = @v", {"v": 30})
        assert result.rows == [(3, 30)]

    def test_server_never_sees_plaintext_param(self, encrypted_table, server):
        # Tap the session: the wire value for @v must be ciphertext.
        seen = {}
        session = encrypted_table.session
        original = session.execute

        def spy(query_text, params=None):
            seen.update(params or {})
            return original(query_text, params)

        session.execute = spy
        encrypted_table.execute("SELECT * FROM T WHERE value = @v", {"v": 50})
        assert isinstance(seen["v"], Ciphertext)

    def test_stored_cells_are_ciphertext(self, encrypted_table, server):
        for __, row in server.engine.scan("T"):
            assert isinstance(row[1], Ciphertext)

    def test_results_decrypted_for_application(self, encrypted_table):
        result = encrypted_table.execute("SELECT value FROM T WHERE id = @i", {"i": 4})
        assert result.rows == [(40,)]

    def test_a_result_column_opens_in_one_batch(self, encrypted_table, monkeypatch):
        sizes: list[int] = []
        decrypt_many = CellCipher.decrypt_many

        def spy(self, envelopes):
            sizes.append(len(envelopes))
            return decrypt_many(self, envelopes)

        monkeypatch.setattr(CellCipher, "decrypt_many", spy)
        encrypted_table.execute("INSERT INTO T (id, value) VALUES (@i, @v)", {"i": 10, "v": None})
        before = encrypted_table.stats.results_decrypted
        result = encrypted_table.execute("SELECT id, value FROM T WHERE id >= @i", {"i": 0})
        assert sorted(result.rows) == [(i, 10 * i) for i in range(10)] + [(10, None)]
        # One batch for the column's ten ciphertexts; the NULL is not a cell.
        assert sizes == [10]
        assert encrypted_table.stats.results_decrypted == before + 10

    def test_a_failed_open_counts_and_raises_as_one_at_a_time(self, encrypted_table, server):
        # Row 2's MAC is broken and row 8 holds plaintext: the first bad row
        # raises, and the rows opened before it are counted.
        table = server.engine.table("T")
        for rid, row in list(table.heap.scan()):
            if row[0] == 2:
                envelope = bytearray(row[1].envelope)
                envelope[-1] ^= 0x10
                table.heap.update(rid, serialize_row((row[0], Ciphertext(bytes(envelope)))))
            elif row[0] == 8:
                table.heap.update(rid, serialize_row((row[0], 80)))
        before = encrypted_table.stats.results_decrypted
        with pytest.raises(IntegrityError):
            encrypted_table.execute("SELECT id, value FROM T WHERE id >= @i", {"i": 0})
        assert encrypted_table.stats.results_decrypted == before + 2

    def test_null_parameter_stays_null(self, ae_connection):
        make_encrypted_table(ae_connection, name="N")
        ae_connection.execute("INSERT INTO N (id, value) VALUES (@i, @v)", {"i": 1, "v": None})
        result = ae_connection.execute("SELECT value FROM N WHERE id = @i", {"i": 1})
        assert result.rows == [(None,)]

    def test_plain_connection_skips_describe(self, plain_server, registry):
        conn = connect(plain_server, registry, column_encryption=False)
        conn.execute_ddl("CREATE TABLE p (a int)")
        before = plain_server.stats.describe_calls
        conn.execute("INSERT INTO p (a) VALUES (@a)", {"a": 1})
        assert plain_server.stats.describe_calls == before


class TestSecurityControls:
    def test_forced_encryption_catches_lying_server(self, encrypted_table):
        # The server claims @i is plaintext (it is — id is unencrypted);
        # an application that *requires* it encrypted must refuse to send.
        with pytest.raises(SecurityViolation, match="forced"):
            encrypted_table.execute(
                "SELECT * FROM T WHERE id = @i", {"i": 1}, force_encryption={"i"}
            )

    def test_forced_encryption_passes_when_encrypted(self, encrypted_table):
        encrypted_table.execute(
            "SELECT * FROM T WHERE value = @v", {"v": 10}, force_encryption={"v"}
        )

    def test_untrusted_cmk_path_rejected(self, server, registry, attestation_policy,
                                         enclave_cmk, enclave_cek):
        server.catalog.create_cmk(enclave_cmk)
        server.catalog.create_cek(enclave_cek)
        conn = connect(
            server,
            registry,
            attestation_policy=attestation_policy,
            trusted_cmk_key_paths=("https://vault.azure.net/keys/only-this-one",),
        )
        make_encrypted_table(conn)
        with pytest.raises(SecurityViolation, match="trusted"):
            conn.execute("INSERT INTO T (id, value) VALUES (@i, @v)", {"i": 1, "v": 2})

    def test_tampered_cmk_flag_rejected(self, server, registry, attestation_policy,
                                        plain_cmk, plain_cek):
        # SQL Server flips the enclave flag on an enclave-disabled CMK; the
        # driver must detect the bad signature before releasing CEKs.
        import dataclasses

        evil_cmk = dataclasses.replace(plain_cmk, allow_enclave_computations=True)
        server.catalog.create_cmk(evil_cmk)
        server.catalog.create_cek(plain_cek)
        conn = connect(server, registry, attestation_policy=attestation_policy)
        make_encrypted_table(conn, cek="PlainCEK", scheme="Randomized")
        with pytest.raises(SecurityViolation):
            conn.execute("INSERT INTO T (id, value) VALUES (@i, @v)", {"i": 1, "v": 2})

    def test_enclave_disabled_cek_never_shipped(self, server, registry,
                                                attestation_policy, plain_cmk, plain_cek,
                                                enclave_cmk, enclave_cek, enclave):
        # DET works without the enclave; the CEK must never be installed.
        server.catalog.create_cmk(plain_cmk)
        server.catalog.create_cek(plain_cek)
        conn = connect(server, registry, attestation_policy=attestation_policy)
        make_encrypted_table(conn, cek="PlainCEK", scheme="Deterministic")
        conn.execute("INSERT INTO T (id, value) VALUES (@i, @v)", {"i": 1, "v": 2})
        conn.execute("SELECT * FROM T WHERE value = @v", {"v": 2})
        assert "PlainCEK" not in enclave.installed_ceks()


class TestCaches:
    def test_describe_cached_across_executions(self, encrypted_table, server):
        q = "SELECT * FROM T WHERE value = @v"
        encrypted_table.execute(q, {"v": 10})
        before = encrypted_table.stats.describe_roundtrips
        encrypted_table.execute(q, {"v": 20})
        encrypted_table.execute(q, {"v": 30})
        assert encrypted_table.stats.describe_roundtrips == before

    def test_describe_not_cached_when_disabled(self, server, registry,
                                               attestation_policy, enclave_cmk, enclave_cek):
        server.catalog.create_cmk(enclave_cmk)
        server.catalog.create_cek(enclave_cek)
        conn = connect(
            server, registry, attestation_policy=attestation_policy,
            cache_describe_results=False,
        )
        make_encrypted_table(conn)
        q = "SELECT * FROM T WHERE id = @i"
        conn.execute(q, {"i": 1})
        before = conn.stats.describe_roundtrips
        conn.execute(q, {"i": 2})
        assert conn.stats.describe_roundtrips == before + 1

    def test_cek_cached_avoids_provider_calls(self, encrypted_table):
        q = "SELECT * FROM T WHERE value = @v"
        encrypted_table.execute(q, {"v": 10})
        before = encrypted_table.stats.key_provider_calls
        encrypted_table.execute(q, {"v": 20})
        assert encrypted_table.stats.key_provider_calls == before

    def test_cek_cache_ttl_expiry(self, encrypted_table):
        encrypted_table.cek_cache.ttl_s = -1.0  # everything expired
        encrypted_table.cek_cache.invalidate()
        q = "SELECT * FROM T WHERE value = @v"
        before = encrypted_table.stats.key_provider_calls
        encrypted_table.execute(q, {"v": 10})
        assert encrypted_table.stats.key_provider_calls > before

    def test_attestation_cached_once(self, encrypted_table, server):
        before = server.hgs.attest_calls if server.hgs else 0
        encrypted_table.execute("SELECT * FROM T WHERE value = @v", {"v": 10})
        encrypted_table.execute("SELECT id FROM T WHERE value > @v", {"v": 10})
        assert server.hgs.attest_calls <= before + 1

    def test_cek_installed_once_per_session(self, encrypted_table, server):
        encrypted_table.execute("SELECT * FROM T WHERE value = @v", {"v": 10})
        before = encrypted_table.stats.package_roundtrips
        encrypted_table.execute("SELECT id FROM T WHERE value > @v", {"v": 10})
        assert encrypted_table.stats.package_roundtrips == before


class TestErrors:
    def test_missing_param_value(self, encrypted_table):
        with pytest.raises(DriverError):
            encrypted_table.execute("SELECT * FROM T WHERE value = @v", {})

    def test_enclave_query_without_policy(self, server, registry, enclave_cmk, enclave_cek):
        server.catalog.create_cmk(enclave_cmk)
        server.catalog.create_cek(enclave_cek)
        conn = connect(server, registry)  # no attestation policy
        make_encrypted_table(conn)
        # Inserting needs no enclave (driver-side encryption only)...
        conn.execute("INSERT INTO T (id, value) VALUES (@i, @v)", {"i": 1, "v": 2})
        # ...but an equality predicate over RND does, and must fail without
        # an attestation policy to verify the enclave with.
        with pytest.raises(DriverError, match="attestation"):
            conn.execute("SELECT * FROM T WHERE value = @v", {"v": 2})

    def test_param_type_validated_client_side(self, encrypted_table):
        from repro.errors import SqlError

        with pytest.raises(SqlError):
            encrypted_table.execute("SELECT * FROM T WHERE value = @v", {"v": "not-int"})
